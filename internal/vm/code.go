package vm

import (
	"fmt"
	"strings"
	"sync/atomic"

	"selfgo/internal/ast"
	"selfgo/internal/bbv"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// Instr is one linearized instruction. Branch instructions hold the
// program counters of both targets; straight-line instructions fall
// through (the assembler inserts explicit jumps where layout requires).
type Instr struct {
	Op      ir.Op
	Dst     ir.Reg
	A, B, C ir.Reg
	Args    []ir.Reg
	Val     obj.Value
	Index   int
	Sel     string
	AOp     ir.ArithKind
	COp     ir.CmpKind
	Checked bool
	TestMap *obj.Map
	Callee  *ir.Callee
	Blk     *ast.Block
	Caps    []ir.Capture
	FailBlk ir.Reg
	Direct  bool

	// T and F are branch targets (taken / not-taken); for opJmp only T
	// is used. For checked Arith, F is the overflow target.
	T, F int

	// IC indexes the code's inline-cache array for Send instructions.
	IC int

	// Resume, for MkBlk instructions whose block non-locally returns
	// from an inlined home method: the pc at which execution resumes
	// when the ^ fires (-1 otherwise); A receives the value.
	Resume int

	// bounds marks compare-branches that implement array bounds checks
	// (for the run-time statistics).
	bounds bool

	// Cost is the compile-time-constant part of the instruction's
	// modelled cycle cost (see staticCost), precomputed at assembly so
	// the hot loop charges one add per dispatch. For a superinstruction
	// it is the exact sum of all constituents' static costs.
	Cost int64

	// N is the number of modelled instructions this entry represents:
	// 1 normally, 2-3 for superinstructions (Instrs accounting).
	N int32

	// Fused chains the remaining constituents of a superinstruction
	// (nil for ordinary instructions). The head instruction keeps the
	// first constituent's fields with a fused Op; each element of the
	// chain is the next constituent verbatim, so fused execution can
	// run — and, on an early fault or overflow branch, uncharge — the
	// constituents exactly as the unfused stream would.
	Fused *Instr
}

// opJmp is an assembler-introduced unconditional jump. It reuses an Op
// value far outside the ir range.
const opJmp ir.Op = 250

// inlineCache is the per-call-site monomorphic cache of Deutsch &
// Schiffman, rewritten on each miss. With PICs enabled it extends into
// a small polymorphic cache checked after the monomorphic entry.
type inlineCache struct {
	m      *obj.Map
	slot   *obj.Slot
	holder *obj.Object // inherited data slots live in the holder object
	code   *Code

	pic []picEntry
}

type picEntry struct {
	m      *obj.Map
	slot   *obj.Slot
	holder *obj.Object
}

// picEntries bounds the polymorphic cache, as in the SELF PIC work.
const picEntries = 6

// picLookup consults the polymorphic extension (nil when disabled,
// direct, or absent).
func (ic *inlineCache) picLookup(vm *VM, m *obj.Map, direct bool) *picEntry {
	if !vm.PICs || direct {
		return nil
	}
	for i := range ic.pic {
		if ic.pic[i].m == m {
			return &ic.pic[i]
		}
	}
	return nil
}

// picStore remembers a resolved receiver map.
func (ic *inlineCache) picStore(vm *VM, m *obj.Map, slot *obj.Slot, holder *obj.Object) {
	if !vm.PICs || len(ic.pic) >= picEntries {
		return
	}
	ic.pic = append(ic.pic, picEntry{m: m, slot: slot, holder: holder})
}

// Origin identifies what a Code object was compiled from: the method
// and the receiver map it was customized for (RMap nil when
// customization is off). The zero Origin marks code that cannot be
// tier-promoted (blocks, scratch methods).
type Origin struct {
	Meth *obj.Method
	RMap *obj.Map
}

// HotCounts is a Code's execution-frequency state for tier promotion:
// invocations and loop backedges, each one atomic add on the fast path
// (shared Code is executed by many VMs at once). Promotion fires once
// per Code — the requested flag is a CAS so exactly one VM's OnHot
// hook runs even when several cross the threshold together.
type HotCounts struct {
	invocations atomic.Int64
	backedges   atomic.Int64
	requested   atomic.Bool
}

// Invocations returns how many times the code was entered.
func (h *HotCounts) Invocations() int64 { return h.invocations.Load() }

// Backedges returns how many backward jumps the code executed.
func (h *HotCounts) Backedges() int64 { return h.backedges.Load() }

// Requested reports whether promotion was already requested.
func (h *HotCounts) Requested() bool { return h.requested.Load() }

// Seed restores persisted hotness state onto freshly compiled code: a
// process booting from a world image replays the counters its
// predecessor recorded, so adaptive promotion resumes where it left
// off instead of re-learning from zero. Requested is seeded too —
// manifest preload compiles directly at the recorded tier, so a
// counter that already fired must not fire again.
func (h *HotCounts) Seed(invocations, backedges int64, requested bool) {
	h.invocations.Store(invocations)
	h.backedges.Store(backedges)
	h.requested.Store(requested)
}

// Code is one compiled method or block.
type Code struct {
	Name    string
	Instrs  []Instr
	NumRegs int
	Bytes   int // modelled code size
	ics     []inlineCache

	// IsBlock marks out-of-line block code (self arrives via the
	// closure, parameters start at register 2).
	IsBlock bool

	// TierLabel names the compilation tier that produced this code
	// ("baseline", "optimizing", "degraded"); empty when the builder
	// does not tier. Informational — it never affects execution.
	TierLabel string

	// Origin is the (method, receiver map) this code was compiled
	// from, set by tiering builders so a hot Code can be recompiled
	// under the same cache key. Zero for blocks.
	Origin Origin

	// Hot counts executions for hotness-driven tier promotion. The
	// counters are charged only while the owning VM has an OnHot hook
	// installed; they have no modelled-cost impact.
	Hot HotCounts

	// hasLandings records whether any MkBlk carries a non-local-return
	// landing (Resume >= 0). When false, exec can skip the
	// recover-and-resume wrapper entirely.
	hasLandings bool

	// bbv, when non-nil, is the lazy basic-block-versioning store for
	// this code (see internal/bbv and vm/bbv.go): the run loop anchors
	// a version at entry, advances it across branches, and elides type
	// tests the current version proves. Written once by EnableBBV
	// before the Code is published; the store itself is internally
	// synchronized and shared by every VM running the code.
	bbv *bbv.State
}

// Assemble linearizes a control flow graph: dead pure instructions are
// dropped, common paths are laid out first, and uncommon (failure)
// paths are moved out of line after the main body — the layout the
// paper's compiler used for failure blocks.
func Assemble(g *ir.Graph) *Code {
	c := &Code{Name: g.Name, NumRegs: g.NumRegs, Bytes: SizePrologue}
	dead := deadNodes(g)

	type work struct{ n *ir.Node }
	pc := map[*ir.Node]int{}
	var fixups []func()

	var common, deferred []*ir.Node
	scheduled := map[*ir.Node]bool{}
	schedule := func(n *ir.Node, uncommon bool) {
		if n == nil || scheduled[n] {
			return
		}
		scheduled[n] = true
		if uncommon {
			deferred = append(deferred, n)
		} else {
			common = append(common, n)
		}
	}
	schedule(g.Entry, false)

	emit := func(in Instr, size int) int {
		in.Cost = staticCost(&in)
		in.N = 1
		c.Instrs = append(c.Instrs, in)
		c.Bytes += size
		return len(c.Instrs) - 1
	}

	// next returns whether control continues to node s after the
	// current instruction; if s was already emitted (or will be on the
	// other queue), an explicit jump is inserted.
	var emitNode func(n *ir.Node)
	fallthroughTo := func(s *ir.Node) *ir.Node {
		if s == nil {
			return nil
		}
		if p, done := pc[s]; done {
			emit(Instr{Op: opJmp, T: p}, SizeSimple)
			return nil
		}
		return s
	}

	emitNode = func(n *ir.Node) {
		for n != nil {
			if p, done := pc[n]; done {
				_ = p
				emit(Instr{Op: opJmp, T: p}, SizeSimple)
				return
			}
			pc[n] = len(c.Instrs)
			switch n.Op {
			case ir.Start, ir.Merge, ir.LoopHead:
				// Labels only; no code.
			case ir.Return, ir.NLReturn, ir.Fail:
				emit(instrOf(n), sizeOf(n))
				return
			case ir.CmpBr, ir.TypeTest:
				i := emit(instrOf(n), sizeOf(n))
				tN, fN := succ(n, 0), succ(n, 1)
				// Lay out the common (true/pass) side next; the other
				// side is a branch target, deferred out of line when
				// uncommon. Branches never fall through: both targets
				// are explicit.
				fixBranch(c, &fixups, pc, i, tN, fN)
				if fN != nil {
					schedule(fN, fN.Uncommon)
				}
				if tN != nil {
					if _, done := pc[tN]; !done {
						n = tN
						continue
					}
				}
				return
			case ir.Arith:
				if n.Checked {
					i := emit(instrOf(n), sizeOf(n))
					ovf := succ(n, 1)
					if ovf != nil {
						idx := i
						fixups = append(fixups, func() {
							c.Instrs[idx].F = pc[ovf]
						})
						schedule(ovf, true)
					}
					n = fallthroughTo(succ(n, 0))
					continue
				}
				emit(instrOf(n), sizeOf(n))
			default:
				if !dead[n] {
					in := instrOf(n)
					if n.Op == ir.Send {
						in.IC = len(c.ics)
						c.ics = append(c.ics, inlineCache{})
					}
					idx := emit(in, sizeOf(n))
					if n.Op == ir.MkBlk && n.Landing != nil {
						c.hasLandings = true
						landing := n.Landing
						schedule(landing, true)
						fixups = append(fixups, func() {
							c.Instrs[idx].Resume = pc[landing]
						})
					}
				}
			}
			n = fallthroughTo(succ(n, 0))
		}
	}

	for len(common) > 0 || len(deferred) > 0 {
		var n *ir.Node
		if len(common) > 0 {
			n, common = common[0], common[1:]
		} else {
			n, deferred = deferred[0], deferred[1:]
		}
		if _, done := pc[n]; done {
			continue
		}
		emitNode(n)
	}
	for _, fx := range fixups {
		fx()
	}
	return c
}

// fixBranch records target fixups for a two-way branch at instruction
// index i.
func fixBranch(c *Code, fixups *[]func(), pc map[*ir.Node]int, i int, tN, fN *ir.Node) {
	if tN != nil {
		t := tN
		*fixups = append(*fixups, func() { c.Instrs[i].T = pc[t] })
	}
	if fN != nil {
		f := fN
		*fixups = append(*fixups, func() { c.Instrs[i].F = pc[f] })
	}
}

func succ(n *ir.Node, i int) *ir.Node {
	if i < len(n.Succ) {
		return n.Succ[i]
	}
	return nil
}

func instrOf(n *ir.Node) Instr {
	return Instr{
		Op: n.Op, Dst: n.Dst, A: n.A, B: n.B, C: n.C,
		Args: n.Args, Val: n.Val, Index: n.Index, Sel: n.Sel,
		AOp: n.AOp, COp: n.COp, Checked: n.Checked, TestMap: n.TestMap,
		Callee: n.Callee, Blk: n.Blk, Caps: n.Caps, FailBlk: n.FailBlk,
		Direct: n.Direct, bounds: strings.HasPrefix(n.Note, "bounds"),
		Resume: -1,
	}
}

func sizeOf(n *ir.Node) int {
	switch n.Op {
	case ir.Const:
		return SizeConst
	case ir.Move:
		return SizeSimple
	case ir.LoadF, ir.StoreF, ir.LoadE, ir.StoreE, ir.VecLen:
		return SizeLoadF
	case ir.NewVec:
		return SizeNewVec
	case ir.CloneOp:
		return SizeClone
	case ir.Arith:
		if n.Checked {
			return SizeArithChk
		}
		return SizeSimple
	case ir.CmpBr:
		return SizeBranch
	case ir.TypeTest:
		return SizeTypeTest
	case ir.Send:
		if n.Direct {
			return SizeCall
		}
		return SizeSend
	case ir.Call:
		return SizeCall
	case ir.PrimOp:
		return SizePrimOp
	case ir.MkBlk:
		return SizeMkBlk + SizeMkBlkCap*len(n.Caps)
	case ir.Fail:
		return SizeFail
	case ir.Return:
		return SizeReturn
	case ir.NLReturn:
		return SizeNLReturn
	case ir.LoadUp, ir.StoreUp:
		return SizeUpAccess
	}
	return 0
}

// deadNodes finds pure instructions whose destination is never read —
// chiefly the boolean constants materialized for branches whose
// consumers were inlined away, and moves made redundant by inlining.
func deadNodes(g *ir.Graph) map[*ir.Node]bool {
	reach := g.Reachable()
	dead := map[*ir.Node]bool{}
	for pass := 0; pass < 10; pass++ {
		reads := map[ir.Reg]bool{}
		for _, n := range reach {
			if dead[n] {
				continue
			}
			for _, r := range []ir.Reg{n.A, n.B, n.C, n.FailBlk} {
				if r != ir.NoReg {
					reads[r] = true
				}
			}
			for _, r := range n.Args {
				reads[r] = true
			}
			for _, cap := range n.Caps {
				if cap.Src != ir.NoReg {
					reads[cap.Src] = true
				}
			}
		}
		changed := false
		for _, n := range reach {
			if dead[n] || n.Dst == ir.NoReg || reads[n.Dst] {
				continue
			}
			switch n.Op {
			case ir.Const, ir.Move, ir.LoadF, ir.LoadE, ir.VecLen, ir.CloneOp, ir.MkBlk, ir.LoadUp:
				dead[n] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dead
}

// Disasm renders the code for tests and cmd/selfc.
func (c *Code) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "code %s: %d instrs, %d regs, %d bytes\n", c.Name, len(c.Instrs), c.NumRegs, c.Bytes)
	for i, in := range c.Instrs {
		fmt.Fprintf(&b, "  %3d: %s\n", i, in.String())
	}
	return b.String()
}

func (in Instr) String() string {
	if base, ok := fusedHeadOp(in.Op); ok {
		head := in
		head.Op = base
		head.Fused = nil
		parts := []string{head.String()}
		for f := in.Fused; f != nil; f = f.Fused {
			parts = append(parts, f.String())
		}
		return "fused{" + strings.Join(parts, "; ") + "}"
	}
	switch in.Op {
	case opJmp:
		return fmt.Sprintf("jmp %d", in.T)
	case ir.Const:
		return fmt.Sprintf("r%d <- const %s", in.Dst, in.Val)
	case ir.Move:
		return fmt.Sprintf("r%d <- r%d", in.Dst, in.A)
	case ir.LoadF:
		return fmt.Sprintf("r%d <- r%d.f[%d]", in.Dst, in.A, in.Index)
	case ir.StoreF:
		return fmt.Sprintf("r%d.f[%d] <- r%d", in.A, in.Index, in.B)
	case ir.LoadE:
		return fmt.Sprintf("r%d <- r%d[r%d]", in.Dst, in.A, in.B)
	case ir.StoreE:
		return fmt.Sprintf("r%d[r%d] <- r%d", in.A, in.B, in.C)
	case ir.VecLen:
		return fmt.Sprintf("r%d <- len r%d", in.Dst, in.A)
	case ir.NewVec:
		return fmt.Sprintf("r%d <- newVec r%d fill r%d", in.Dst, in.A, in.B)
	case ir.CloneOp:
		return fmt.Sprintf("r%d <- clone r%d", in.Dst, in.A)
	case ir.Arith:
		if in.Checked {
			return fmt.Sprintf("r%d <- r%d %s r%d ovfl->%d", in.Dst, in.A, in.AOp, in.B, in.F)
		}
		return fmt.Sprintf("r%d <- r%d %s r%d", in.Dst, in.A, in.AOp, in.B)
	case ir.CmpBr:
		return fmt.Sprintf("if r%d %s r%d ->%d else ->%d", in.A, in.COp, in.B, in.T, in.F)
	case ir.TypeTest:
		return fmt.Sprintf("if r%d is %s ->%d else ->%d", in.A, in.TestMap.Name, in.T, in.F)
	case ir.Send:
		kind := "send"
		if in.Direct {
			kind = "send(static)"
		}
		return fmt.Sprintf("r%d <- %s %q %v", in.Dst, kind, in.Sel, in.Args)
	case ir.Call:
		return fmt.Sprintf("r%d <- call %s %v", in.Dst, in.Callee, in.Args)
	case ir.PrimOp:
		return fmt.Sprintf("r%d <- prim %q %v", in.Dst, in.Sel, in.Args)
	case ir.MkBlk:
		return fmt.Sprintf("r%d <- mkblk (%d caps)", in.Dst, len(in.Caps))
	case ir.Fail:
		if in.TestMap != nil {
			return fmt.Sprintf("fail %s does not understand %q", in.TestMap.Name, in.Sel)
		}
		return fmt.Sprintf("fail %q", in.Sel)
	case ir.Return:
		return fmt.Sprintf("ret r%d", in.A)
	case ir.NLReturn:
		return fmt.Sprintf("nlret r%d", in.A)
	case ir.LoadUp:
		return fmt.Sprintf("r%d <- up %q", in.Dst, in.Sel)
	case ir.StoreUp:
		return fmt.Sprintf("up %q <- r%d", in.Sel, in.A)
	}
	return in.Op.String()
}
