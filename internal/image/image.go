// Package image serializes a selfgo world to a versioned, checksummed
// binary "world image" and restores it into a live process.
//
// An image does not serialize compiled code, Go pointers, or raw
// memory. It records the three things a fresh process cannot
// reconstruct on its own:
//
//   - the source texts that were loaded, in order (replaying them
//     rebuilds every load-time map, method AST and prototype
//     deterministically — maps created during loads carry a stable
//     load ordinal, see obj.Map.LoadOrd);
//   - the mutable object state layered on top of that structure: the
//     reachable object graph's fields and elements, plus the maps that
//     compiled object literals minted at run time (named by the
//     literal's position inside a replayable method body);
//   - a code-cache manifest: which (method, customization, block) keys
//     were compiled, at which tier, and how hot they were — so a
//     restored process can re-compile its hot set in the background
//     before taking traffic instead of re-discovering it under load.
//
// Everything else — bytecode, inline caches, type feedback — is
// deliberately rebuilt by re-compilation: machine state is a cache
// over (sources, manifest), never truth.
//
// Coordinates. Objects are named by discovery index in a deterministic
// walk (anchors first — the load-time graph reachable through const
// and parent slots — then extras reachable through mutable fields).
// Maps are named by load ordinal, or for run-time maps by (owning
// top-level method, literal ordinal) where the ordinal counts object
// literals in that method's AST in ast.Walk pre-order. Blocks are
// named the same way with block ordinals. Because ast.Walk descends
// into the method bodies of nested object literals, one walk of a
// top-level owner covers every block and literal beneath it, however
// deeply nested.
//
// Restore is two-phase: every reference is resolved and validated
// against the freshly replayed world first (including a structural
// digest of the anchor walk recorded at save time); only when nothing
// can fail anymore is object state patched in. A truncated, corrupted
// or mismatched image therefore yields an error and an untouched
// world, never a partially restored one.
package image

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"

	"selfgo/internal/ast"
	"selfgo/internal/obj"
)

// Val kinds in serialized object state. Blocks are absent by design:
// a live closure pins a VM frame and cannot outlive its process, so
// Snapshot refuses worlds that hold one.
const (
	ValNil byte = iota
	ValInt
	ValStr
	ValObj
)

// Val is one serialized slot, field or element value.
type Val struct {
	Kind byte
	I    int64  // ValInt
	S    string // ValStr: content, re-interned on restore
	Ref  int    // ValObj: index into Image.Objects
}

// OwnerRef names a top-level method — the unit whose AST is walked to
// assign literal and block ordinals. Owners are either a method slot
// on a load-ordinal map or an interned eval program's scratch method.
type OwnerRef struct {
	Eval    bool
	EvalIdx int    // Eval: index into Image.EvalSources
	LoadOrd int    // !Eval: holder map's load ordinal
	Sel     string // !Eval: method slot name on the holder
}

// MapRec names one map in the image's map table.
type MapRec struct {
	Runtime bool
	LoadOrd int // !Runtime: ordinal into the replayed world's load registry

	// Runtime maps: the object literal that minted the map, plus the
	// save-time const/parent slot values (re-building the literal
	// re-evaluates initializers against the fully replayed world,
	// which may differ from what the minting compile saw).
	Owner    OwnerRef
	LitOrd   int
	SlotVals []SlotVal
}

// SlotVal overrides one const/parent slot value on a rebuilt map.
type SlotVal struct {
	Idx int
	V   Val
}

// ObjRec is one serialized object: its map and its mutable state.
type ObjRec struct {
	MapIdx int
	Fields []Val
	Elems  []Val
}

// MethodRec names a method for a manifest entry.
type MethodRec struct {
	Eval    bool
	EvalIdx int // Eval: scratch method of that eval program
	MapIdx  int // !Eval: holder map in the map table
	Sel     string
}

// ManifestRec is one code-cache manifest entry: a compiled key, its
// tier, and its hotness at save time. No machine code — the restored
// process re-compiles.
type ManifestRec struct {
	Block bool

	// Methods.
	Meth    MethodRec
	RMapIdx int // customized receiver map, -1 = shared

	// Blocks.
	Owner   OwnerRef
	Ord     int
	UpNames []string

	Tier        string
	Invocations int64
	Backedges   int64
	Requested   bool
}

// Image is a decoded world image.
type Image struct {
	Sources     []string // load texts in order; Sources[0] is the prelude
	EvalSources []string // interned eval program texts

	// WalkDigest fingerprints the anchor walk of the saved world;
	// restore recomputes it over the replayed world and refuses on
	// mismatch (the image no longer matches what its sources build).
	WalkDigest [32]byte

	Maps       []MapRec
	NumAnchors int // Objects[:NumAnchors] are anchors, the rest extras
	Objects    []ObjRec
	Manifest   []ManifestRec

	// Hash is the hex sha256 of the encoded payload, set by Encode and
	// Decode. It identifies the image in /statusz and logs.
	Hash string
}

// walkMethod walks a method's initializers and body in the canonical
// order shared by save and restore: local initializers first, then
// body expressions, each in ast.Walk pre-order.
func walkMethod(m *ast.Method, fn func(ast.Expr)) {
	for _, l := range m.Locals {
		if l.Init != nil {
			ast.Walk(l.Init, fn)
		}
	}
	for _, e := range m.Body {
		ast.Walk(e, fn)
	}
}

// methodLits enumerates every object literal under a method's AST
// (including literals inside nested literal methods), in walk order.
func methodLits(m *ast.Method) []*ast.ObjectLit {
	var out []*ast.ObjectLit
	walkMethod(m, func(e ast.Expr) {
		if l, ok := e.(*ast.ObjectLit); ok {
			out = append(out, l)
		}
	})
	return out
}

// methodBlocks enumerates every block under a method's AST, in walk
// order.
func methodBlocks(m *ast.Method) []*ast.Block {
	var out []*ast.Block
	walkMethod(m, func(e ast.Expr) {
		if b, ok := e.(*ast.Block); ok {
			out = append(out, b)
		}
	})
	return out
}

// digestW accumulates the structural digest of an anchor walk.
type digestW struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

func (d *digestW) u(v uint64) {
	n := binary.PutUvarint(d.buf[:], v)
	d.h.Write(d.buf[:n])
}

func (d *digestW) i(v int64) {
	n := binary.PutVarint(d.buf[:], v)
	d.h.Write(d.buf[:n])
}

func (d *digestW) s(s string) {
	d.u(uint64(len(s)))
	io.WriteString(d.h, s)
}

// walkAnchors enumerates the load-time object graph — the objects
// reachable from the well-known roots through const and parent slots
// only (never mutable fields, which diverge between a live world and a
// fresh replay) — and digests the structure it traverses: each map's
// load ordinal, shape and slot values, and each anchor's map. The walk
// is a pure function of the loaded sources, so the saved and replayed
// worlds enumerate identical anchor sequences or produce different
// digests.
func walkAnchors(w *obj.World) ([]*obj.Object, [32]byte) {
	d := &digestW{h: sha256.New()}
	idx := map[*obj.Object]int{}
	var out []*obj.Object
	add := func(v obj.Value) {
		if o := v.Obj(); o != nil {
			if _, ok := idx[o]; !ok {
				idx[o] = len(out)
				out = append(out, o)
			}
		}
	}
	seenMap := map[*obj.Map]bool{}
	scanMap := func(m *obj.Map) {
		if m == nil || seenMap[m] {
			return
		}
		seenMap[m] = true
		d.s("M")
		d.i(int64(m.LoadOrd))
		d.u(uint64(m.NFields))
		if m.Indexable {
			d.u(1)
		} else {
			d.u(0)
		}
		d.u(uint64(len(m.Slots)))
		for i := range m.Slots {
			s := &m.Slots[i]
			d.s(s.Name)
			d.u(uint64(s.Kind))
			d.i(int64(s.Index))
			switch s.Kind {
			case obj.ConstSlot, obj.ParentSlot:
				switch s.Value.K() {
				case obj.KNil:
					d.s("n")
				case obj.KInt:
					d.s("i")
					d.i(s.Value.I())
				case obj.KStr:
					d.s("s")
					d.s(s.Value.S())
				case obj.KObj:
					add(s.Value)
					d.s("o")
					d.u(uint64(idx[s.Value.Obj()]))
				case obj.KBlock:
					d.s("b")
				}
			case obj.MethodSlot:
				d.s("m")
				d.s(s.Meth.Sel)
			}
		}
	}

	// Roots and builtin maps in fixed order, then the worklist: each
	// discovered anchor's map is scanned, which can discover more
	// anchors through its const/parent slots.
	add(obj.Obj(w.Lobby))
	add(obj.Obj(w.TrueObj))
	add(obj.Obj(w.FalseObj))
	add(obj.Obj(w.VectorProto))
	for _, m := range []*obj.Map{w.NilMap, w.IntMap, w.StrMap, w.BlockMap, w.VecMap} {
		scanMap(m)
	}
	for i := 0; i < len(out); i++ {
		scanMap(out[i].Map)
	}
	for _, o := range out {
		d.s("A")
		d.i(int64(o.Map.LoadOrd))
	}

	var sum [32]byte
	copy(sum[:], d.h.Sum(nil))
	return out, sum
}
