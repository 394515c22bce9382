package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"selfgo/internal/ast"
	"selfgo/internal/codecache"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
)

// Calling convention shared with the compiler: register 0 is the
// receiver, register 1 the result slot, parameters start at 2.
const (
	RegSelf      = 0
	RegParamBase = 2
)

// RunStats is the dynamic cost accounting for one execution.
type RunStats struct {
	Cycles       int64
	Instrs       int64
	Sends        int64 // dynamically-dispatched sends executed
	ICHits       int64
	ICMisses     int64
	Calls        int64 // statically-bound calls
	TypeTests    int64
	OvflChecks   int64
	BoundsChecks int64
	BlockValues  int64
	Allocs       int64
	AllocBytes   int64 // modelled bytes of vector/clone storage (per-element charge)
	MaxDepth     int

	// Adaptive-tier activity this VM performed during the run; always
	// zero outside adaptive mode, so differential comparisons of whole
	// RunStats across eager modes stay exact.
	Promotions int64 // tier-promotion requests fired (OnHot accepted by the cache)
	Harvests   int64 // type-feedback harvests taken from this VM's inline caches

	// Lazy basic-block-versioning activity (vm/bbv.go); all zero under
	// the split strategy, so whole-RunStats differentials there stay
	// exact.
	BBVVersions     int64 // block versions this VM materialized
	BBVCapHits      int64 // specialized contexts served the generic fallback at the cap
	BBVElidedCtx    int64 // type tests elided by a context-proven fact
	BBVElidedShape  int64 // type tests elided by a typed-shape fact
	BBVVersionBytes int64 // modelled bytes of the versions this VM materialized
}

// CompileRecord aggregates on-the-fly compilation work triggered by a
// run: the paper's compile-time and code-space numbers are sums over
// all methods compiled while the benchmark warms up. Methods and
// CodeBytes count only compilations this VM itself performed — with a
// shared cache, code another VM compiled arrives as a CacheHits or
// CacheWaits instead.
type CompileRecord struct {
	Methods   int
	CodeBytes int

	// Degraded counts compilations that succeeded only under the
	// degraded fallback configuration after the optimizing compiler
	// failed or panicked (see core.Degraded).
	Degraded int

	// Shared-cache outcomes observed by this VM; all zero when the VM
	// runs against its private per-VM cache.
	CacheHits   int64 // code found already compiled in the shared cache
	CacheMisses int64 // compilations this VM won (== compiler runs)
	CacheWaits  int64 // blocked on another VM's in-flight compilation
}

// VM executes compiled code, compiling methods and blocks on demand
// through the injected callbacks (dynamic compilation, as in both SELF
// systems and ParcPlace Smalltalk).
type VM struct {
	World *obj.World

	// CompileMethod compiles a method customized for rmap (rmap nil
	// when customization is off).
	CompileMethod func(m *obj.Method, rmap *obj.Map) (*Code, error)
	// CompileBlock compiles a block for out-of-line execution; upNames
	// are the closure's captured variable names.
	CompileBlock func(b *ast.Block, upNames []string) (*Code, error)

	// Customize keys the code cache by receiver map.
	Customize bool
	// SendExtra is added to every dynamic send (old SELF-90 overhead).
	SendExtra int64
	// InstrExtra is added to every executed instruction (ST-80's
	// translated-code quality penalty).
	InstrExtra int64
	// MissHandlers models §6.1 call-site-specific miss handlers.
	MissHandlers bool
	// PICs enables polymorphic inline caches (up to picEntries maps
	// per send site).
	PICs bool

	// Strategy distinguishes code compiled under different
	// specialization strategies in the shared code cache (see
	// core.Strategy; the numeric value is mixed into every cache key).
	// Execution itself keys off Code.bbv, not this field.
	Strategy uint8

	// OnHot, when non-nil, enables hotness tracking: every invocation
	// and loop backedge charges one atomic add on the executed Code's
	// Hot counters, and the first time a Code's combined count reaches
	// PromoteThreshold the hook fires — exactly once per Code (a CAS
	// guards it), on this VM's goroutine, from inside the run loop.
	// The hook must not re-enter the VM. Nil leaves the fast path
	// entirely free of hotness work.
	OnHot func(code *Code)
	// PromoteThreshold is the invocations+backedges count at which
	// OnHot fires. Values <= 0 fire on the first execution.
	PromoteThreshold int64

	// Budget bounds each execution (zero fields are unlimited); see
	// Budget. RunMethodCtx additionally honors context cancellation.
	Budget Budget

	// Arena, when non-nil, backs vector and clone storage with
	// recycled per-VM chunks instead of individual Go allocations.
	// The owner decides the epoch boundary by calling Arena.Reset
	// between runs (never during one): the serving layer resets when a
	// pooled VM returns to the pool. Nil keeps plain heap allocation.
	Arena *obj.Arena

	// Shared, when non-nil, replaces the private per-VM code caches
	// with a process-wide sharded single-flight cache: compiled Code is
	// shared read-only across every VM attached to the same cache, and
	// the mutable inline-cache state moves into per-VM side tables (see
	// icFor). A VM itself is single-goroutine; concurrency comes from
	// running one VM per goroutine against one Shared cache and one
	// World (read-side).
	Shared *codecache.Cache[*Code]

	// Out receives _Print output (defaults to io.Discard).
	Out io.Writer

	Stats   RunStats
	Compile CompileRecord

	methodCache map[methodKey]*Code
	blockCache  map[*ast.Block]*Code

	// sharedICs holds this VM's inline-cache state for shared Code:
	// the Code object is immutable after assembly, so each VM keeps its
	// own send-site caches, exactly as each native SELF process would
	// have its own writable inline-cache words.
	sharedICs map[*Code][]inlineCache

	// sharedGen is the cache generation at which this VM's private
	// memos (methodCache/blockCache acting as an L1 over Shared) were
	// valid; when the shared cache's generation moves past it, the
	// memos and inline caches are dropped.
	sharedGen int64

	depth int

	// freeFrames is the activation-frame freelist (see pool.go). No
	// locking: a VM is single-goroutine, frames never cross VMs.
	freeFrames []*frame

	// argScratch is the reusable argument buffer for argVals. Safe as a
	// single per-VM buffer because every consumer copies or consumes the
	// arguments before any nested guest execution can refill it.
	argScratch []obj.Value

	// Cooperative budget state for the current run (see budget.go):
	// ctx is the cancellation context (nil when none), pollAt the
	// Instrs count at which the next poll fires, pollEvery the armed
	// stride (Budget.PollEvery or the default), fuelStart/allocStart
	// the counters at run entry (budgets are per-run).
	ctx        context.Context
	pollAt     int64
	pollEvery  int64
	fuelStart  int64
	allocStart int64
	bytesStart int64

	// curEp caches Arena.Epoch() for the duration of a run (0 when no
	// arena): the store barrier compares every written-to object's
	// epoch against it, and only mismatches take the slow path.
	curEp uint32

	// Copy-on-write state (EnableCOW): cowEp is the frozen base
	// world's epoch — stores into objects carrying it are redirected
	// into per-VM shadow copies, reads through them see the shadow.
	// cowShadowEp stamps the shadows themselves (fork-permanent, so
	// the escape check must not mistake them for arena values).
	// Base-object stores already miss the `o.Ep != curEp` fast-path
	// compare, so the write barrier costs nothing new; reads pay one
	// predictable `cowEp != 0` compare. cowShadows is keyed by the
	// base object. Zero cowEp (the default) disables all of it.
	cowEp       uint32
	cowShadowEp uint32
	cowShadows  map[*obj.Object]*obj.Object
}

type methodKey struct {
	meth *obj.Method
	rmap *obj.Map
}

// frame is one activation.
type frame struct {
	regs []obj.Value
	up   map[string]*obj.Value // block frames: captured variables
	home homeRef               // where a non-local return lands
	dead bool

	// escaped marks frames a closure has captured (registers by address
	// and/or the frame itself as a non-local-return home); such frames
	// must never return to the pool — a recycled home would make a dead
	// frame look live again. See makeBlock and pool.go.
	escaped bool
}

// homeRef identifies the home of a non-local return: a frame, plus —
// when the home method was inlined — the pc of its epilogue landing
// and the register receiving the value. resume < 0 means "return from
// the whole frame".
type homeRef struct {
	fr     *frame
	resume int
	reg    ir.Reg
}

// nlr is the panic payload of a non-local return.
type nlr struct {
	ref homeRef
	val obj.Value
}

func (vm *VM) init() {
	if vm.pollAt == 0 {
		vm.pollAt = math.MaxInt64
	}
	if vm.methodCache == nil {
		vm.methodCache = map[methodKey]*Code{}
	}
	if vm.blockCache == nil {
		vm.blockCache = map[*ast.Block]*Code{}
	}
	if vm.sharedICs == nil && vm.Shared != nil {
		vm.sharedICs = map[*Code][]inlineCache{}
	}
	if vm.Out == nil {
		vm.Out = io.Discard
	}
}

// CodeFor returns (compiling on demand) the code for meth with
// receiver map rmap.
func (vm *VM) CodeFor(meth *obj.Method, rmap *obj.Map) (*Code, error) {
	vm.init()
	key := methodKey{meth: meth}
	if vm.Customize {
		key.rmap = rmap
	}
	if vm.Shared != nil {
		vm.checkSharedGen()
		if c, ok := vm.methodCache[key]; ok {
			return c, nil
		}
		c, err := vm.sharedGet(codecache.Key{Meth: meth, RMap: key.rmap, Strat: vm.Strategy}, func() (*Code, error) {
			return vm.CompileMethod(meth, key.rmap)
		})
		if err != nil {
			return nil, err
		}
		vm.methodCache[key] = c
		return c, nil
	}
	if c, ok := vm.methodCache[key]; ok {
		return c, nil
	}
	c, err := vm.CompileMethod(meth, key.rmap)
	if err != nil {
		return nil, err
	}
	vm.methodCache[key] = c
	vm.Compile.Methods++
	vm.Compile.CodeBytes += c.Bytes
	return c, nil
}

func (vm *VM) blockCodeFor(cl *obj.Closure) (*Code, error) {
	vm.init()
	b := cl.Ast
	if vm.Shared != nil {
		vm.checkSharedGen()
		if c, ok := vm.blockCache[b]; ok {
			return c, nil
		}
		c, err := vm.sharedGet(codecache.Key{Blk: b, Strat: vm.Strategy}, func() (*Code, error) {
			return vm.CompileBlock(b, upNamesOf(cl))
		})
		if err != nil {
			return nil, err
		}
		vm.blockCache[b] = c
		return c, nil
	}
	if c, ok := vm.blockCache[b]; ok {
		return c, nil
	}
	c, err := vm.CompileBlock(b, upNamesOf(cl))
	if err != nil {
		return nil, err
	}
	vm.blockCache[b] = c
	vm.Compile.Methods++
	vm.Compile.CodeBytes += c.Bytes
	return c, nil
}

func upNamesOf(cl *obj.Closure) []string {
	names := make([]string, 0, len(cl.UpLocals))
	for n := range cl.UpLocals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkSharedGen drops this VM's private memos (methodCache/blockCache
// acting as an L1 over Shared, plus the shared-Code inline caches) when
// the shared cache's invalidation generation has moved. Sends are far
// hotter than compiles, so resolving them from the private memo keeps
// workers off the shard locks; the generation check is one atomic load.
func (vm *VM) checkSharedGen() {
	if g := vm.Shared.Generation(); g != vm.sharedGen {
		clear(vm.methodCache)
		clear(vm.blockCache)
		clear(vm.sharedICs)
		vm.sharedGen = g
	}
}

// sharedGet routes a compilation through the shared cache, folding the
// single-flight outcome into this VM's compile record: only the flight
// winner charges Methods/CodeBytes, so summing records across VMs still
// counts each compilation exactly once. A compile callback that
// panicked inside the flight surfaces to every caller as a
// KindInternal RuntimeError with the Go stack attached.
func (vm *VM) sharedGet(key codecache.Key, compile func() (*Code, error)) (*Code, error) {
	c, outcome, err := vm.Shared.Get(key, compile)
	if err != nil {
		var pe *codecache.PanicError
		if errors.As(err, &pe) {
			return nil, &RuntimeError{Kind: KindInternal, Msg: pe.Error(), GoStack: pe.Stack}
		}
		return nil, err
	}
	switch outcome {
	case codecache.Compiled:
		vm.Compile.CacheMisses++
		vm.Compile.Methods++
		vm.Compile.CodeBytes += c.Bytes
	case codecache.Hit:
		vm.Compile.CacheHits++
	case codecache.Wait:
		vm.Compile.CacheWaits++
	}
	return c, nil
}

// icFor returns the send site's inline-cache slot: the Code's own array
// when the code is private to this VM, or this VM's side table when the
// Code is shared (shared Code must stay immutable).
func (vm *VM) icFor(code *Code, idx int) *inlineCache {
	if vm.Shared == nil {
		return &code.ics[idx]
	}
	ics := vm.sharedICs[code]
	if ics == nil {
		ics = make([]inlineCache, len(code.ics))
		vm.sharedICs[code] = ics
	}
	return &ics[idx]
}

const maxDepth = 100000

// RunMethod executes meth with the given receiver and arguments.
func (vm *VM) RunMethod(meth *obj.Method, recv obj.Value, args ...obj.Value) (obj.Value, error) {
	return vm.runMethod(nil, meth, recv, args)
}

// runMethod is the public execution boundary shared by RunMethod and
// RunMethodCtx: it validates arity, arms the cooperative budget poll,
// and contains any Go panic that escapes the interpreter or an
// on-demand compilation — a misbehaving guest program or a compiler
// bug degrades this call, never the process.
func (vm *VM) runMethod(ctx context.Context, meth *obj.Method, recv obj.Value, args []obj.Value) (val obj.Value, err error) {
	vm.init()
	if meth.Ast != nil {
		if want := len(meth.Ast.Params); len(args) != want {
			return obj.Nil(), &RuntimeError{Kind: KindError,
				Msg: fmt.Sprintf("%s takes %d argument(s), got %d", meth, want, len(args))}
		}
	}
	vm.startRun(ctx)
	defer func() {
		vm.ctx = nil
		vm.pollAt = math.MaxInt64
		if r := recover(); r != nil {
			val, err = obj.Nil(), containPanic(r)
		}
	}()
	code, err := vm.CodeFor(meth, vm.World.MapOf(recv))
	if err != nil {
		return obj.Nil(), err
	}
	return vm.invoke(code, recv, args, nil)
}

// invoke runs code in a fresh frame. up is non-nil for block frames.
func (vm *VM) invoke(code *Code, recv obj.Value, args []obj.Value, up map[string]*obj.Value) (val obj.Value, err error) {
	if vm.OnHot != nil {
		vm.noteInvoke(code)
	}
	vm.depth++
	if vm.depth > vm.Stats.MaxDepth {
		vm.Stats.MaxDepth = vm.depth
	}
	if vm.depth > vm.depthLimit() {
		vm.depth--
		return obj.Nil(), &RuntimeError{Kind: KindStackOverflow, Msg: "stack overflow"}
	}
	fr := vm.getFrame(code.NumRegs)
	fr.up = up
	fr.home = homeRef{fr: fr, resume: -1}
	if code.NumRegs > RegSelf {
		fr.regs[RegSelf] = recv
	}
	for i, a := range args {
		if RegParamBase+i < len(fr.regs) {
			fr.regs[RegParamBase+i] = a
		}
	}
	defer func() {
		fr.dead = true
		vm.depth--
		// Recycling before the recover logic keeps the frame pooled on
		// every exit (return, nlr catch, re-panic); putFrame refuses
		// escaped frames, and no getFrame can run until unwinding ends,
		// so the identity checks below still see this fr unaliased.
		vm.putFrame(fr)
		if r := recover(); r != nil {
			if n, ok := r.(nlr); ok {
				if n.ref.fr == fr && n.ref.resume < 0 {
					val, err = n.val, nil
					return
				}
				panic(r) // keep unwinding toward the home frame
			}
			panic(r)
		}
	}()
	return vm.exec(code, fr)
}

// exec runs a frame, restarting at the landing pc whenever a non-local
// return from an inlined home method unwinds into this frame.
func (vm *VM) exec(code *Code, fr *frame) (obj.Value, error) {
	if !code.hasLandings {
		// No MkBlk in this code carries a resume landing, so no nlr can
		// ever target (fr, resume>=0): skip the recover wrapper.
		return vm.run(code, fr, 0)
	}
	pc := 0
	for {
		v, resume, err := vm.execFrom(code, fr, pc)
		if resume < 0 {
			return v, err
		}
		pc = resume
	}
}

func (vm *VM) execFrom(code *Code, fr *frame, startPC int) (val obj.Value, resumePC int, err error) {
	resumePC = -1
	defer func() {
		if r := recover(); r != nil {
			if n, ok := r.(nlr); ok && n.ref.fr == fr && n.ref.resume >= 0 {
				fr.regs[n.ref.reg] = n.val
				resumePC = n.ref.resume
				return
			}
			panic(r)
		}
	}()
	val, err = vm.run(code, fr, startPC)
	return val, -1, err
}

// run is the interpreter loop: the one engine that executes a frame's
// Instrs stream.
//
// Cycle accounting is precomputed: every instruction's static modelled
// cost — and, for superinstructions, the summed cost of all
// constituents — was folded into Instr.Cost at assembly, so the loop
// charges one add per dispatch; only genuinely dynamic costs (vector
// fill, clone size, send dispatch, primitive calls) remain in the
// cases. A fused case that bails out early (fault, or a checked-arith
// branch to the overflow target) uncharges its unexecuted tail,
// keeping Stats bit-identical to the unfused stream (the fused-vs-
// unfused differential tests pin this).
func (vm *VM) run(code *Code, fr *frame, pc int) (val obj.Value, err error) {
	// As an error unwinds through the activations it grows a Self-level
	// backtrace, one frame per run invocation; pc holds the faulting
	// (or calling) instruction when the deferred append runs.
	defer func() {
		if err != nil {
			pushFrame(err, code, pc)
		}
	}()
	st := &vm.Stats
	extra := vm.InstrExtra
	trackHot := vm.OnHot != nil
	cowEp := vm.cowEp // non-zero only on copy-on-write forks
	shapes := vm.World.ShapeTracking
	// Lazy basic-block versioning (vm/bbv.go): anchor a version at the
	// method entry and advance it across every branch; ver is nil when
	// the code is unversioned or control resumed at a landing pad (the
	// first branch re-anchors).
	bbvOn := code.bbv != nil
	var ver *bbvVersion
	if bbvOn && pc == 0 {
		ver = vm.bbvAnchor(code)
	}
	for pc >= 0 && pc < len(code.Instrs) {
		in := &code.Instrs[pc]
		st.Instrs += int64(in.N)
		if st.Instrs >= vm.pollAt {
			if perr := vm.poll(st); perr != nil {
				return obj.Nil(), perr
			}
		}
		st.Cycles += in.Cost
		if extra != 0 {
			st.Cycles += extra * int64(in.N)
		}
		switch in.Op {
		case opJmp:
			if trackHot && in.T <= pc {
				vm.noteBackedge(code)
			}
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, true, in.T)
			}
			pc = in.T
			continue
		case ir.Const:
			fr.regs[in.Dst] = in.Val
		case ir.Move:
			fr.regs[in.Dst] = fr.regs[in.A]
		case ir.LoadF:
			o := fr.regs[in.A].Obj()
			if o == nil || in.Index >= len(o.Fields) {
				return obj.Nil(), errBadField(code, "access")
			}
			if cowEp != 0 && o.Ep == cowEp {
				o = vm.cowShadowed(o)
			}
			fr.regs[in.Dst] = o.Fields[in.Index]
		case ir.StoreF:
			o := fr.regs[in.A].Obj()
			if o == nil || in.Index >= len(o.Fields) {
				return obj.Nil(), errBadField(code, "store")
			}
			if o.Ep != vm.curEp {
				o = vm.storeSlow(o, fr.regs[in.B])
			}
			if shapes {
				vm.World.NoteFieldStore(o.Map, in.Index, fr.regs[in.B])
			}
			o.Fields[in.Index] = fr.regs[in.B]
		case ir.LoadE:
			o := fr.regs[in.A].Obj()
			if o == nil {
				return obj.Nil(), errElemNonObject(code, "load")
			}
			i := fr.regs[in.B].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				return obj.Nil(), errElemOOB(code, "load", i, len(o.Elems))
			}
			if cowEp != 0 && o.Ep == cowEp {
				o = vm.cowShadowed(o)
			}
			fr.regs[in.Dst] = o.Elems[i]
		case ir.StoreE:
			o := fr.regs[in.A].Obj()
			if o == nil {
				return obj.Nil(), errElemNonObject(code, "store")
			}
			i := fr.regs[in.B].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				return obj.Nil(), errElemOOB(code, "store", i, len(o.Elems))
			}
			if o.Ep != vm.curEp {
				o = vm.storeSlow(o, fr.regs[in.C])
			}
			o.Elems[i] = fr.regs[in.C]
		case ir.VecLen:
			o := fr.regs[in.A].Obj()
			if o == nil {
				return obj.Nil(), &RuntimeError{Msg: "vecLen of non-vector"}
			}
			fr.regs[in.Dst] = obj.Int(int64(len(o.Elems)))
		case ir.NewVec:
			if verr := vm.makeVector(st, fr, in); verr != nil {
				return obj.Nil(), verr
			}
		case ir.CloneOp:
			if cerr := vm.makeClone(st, fr, in); cerr != nil {
				return obj.Nil(), cerr
			}
		case ir.Arith:
			br, aerr := arithVal(st, in, fr)
			if aerr != nil {
				return obj.Nil(), aerr
			}
			if br {
				pc = in.F
				continue
			}
		case ir.CmpBr:
			if in.bounds {
				st.BoundsChecks++
			}
			taken := cmpTaken(in.COp, fr.regs[in.A], fr.regs[in.B])
			target := in.F
			if taken {
				target = in.T
			}
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, taken, target)
			}
			pc = target
			continue
		case ir.TypeTest:
			if bbvOn && ver != nil && ver.BranchPC == pc && ver.Elide != bbvElideNone {
				if taken, ok := vm.bbvElide(st, ver, in); ok {
					target := in.F
					if taken {
						target = in.T
					}
					ver = vm.bbvEdge(code, ver, pc, taken, target)
					pc = target
					continue
				}
			}
			st.TypeTests++
			taken := vm.World.MapOf(fr.regs[in.A]) == in.TestMap
			target := in.F
			if taken {
				target = in.T
			}
			if bbvOn {
				ver = vm.bbvEdge(code, ver, pc, taken, target)
			}
			pc = target
			continue
		case ir.Send:
			v, serr := vm.execSend(in, fr, code)
			if serr != nil {
				return obj.Nil(), serr
			}
			if in.Dst != ir.NoReg {
				fr.regs[in.Dst] = v
			}
		case ir.Call:
			st.Calls++
			callee, cerr := vm.CodeFor(in.Callee.Meth, in.Callee.RMap)
			if cerr != nil {
				return obj.Nil(), cerr
			}
			v, cerr := vm.invoke(callee, fr.regs[in.Args[0]], vm.argVals(in.Args[1:], fr), nil)
			if cerr != nil {
				return obj.Nil(), cerr
			}
			if in.Dst != ir.NoReg {
				fr.regs[in.Dst] = v
			}
		case ir.PrimOp:
			v, perr := vm.execPrim(in, fr)
			if perr != nil {
				return obj.Nil(), perr
			}
			if in.Dst != ir.NoReg {
				fr.regs[in.Dst] = v
			}
		case ir.MkBlk:
			vm.makeBlock(st, fr, in)
		case ir.Fail:
			return obj.Nil(), failError(code, fr, in)
		case ir.Return:
			return fr.regs[in.A], nil
		case ir.NLReturn:
			if fr.home.fr == nil || fr.home.fr.dead {
				return obj.Nil(), &RuntimeError{Msg: "non-local return from dead home frame"}
			}
			panic(nlr{ref: fr.home, val: fr.regs[in.A]})
		case ir.LoadUp:
			p := fr.up[in.Sel]
			if p == nil {
				return obj.Nil(), &RuntimeError{Msg: "unbound up-level variable " + in.Sel}
			}
			fr.regs[in.Dst] = *p
		case ir.StoreUp:
			p := fr.up[in.Sel]
			if p == nil {
				return obj.Nil(), &RuntimeError{Msg: "unbound up-level variable " + in.Sel}
			}
			*p = fr.regs[in.A]

		// Superinstructions (fuse.go): each executes its constituents
		// exactly in order, bailing out — with an uncharge of the
		// unexecuted tail — when an early constituent faults or takes
		// its overflow branch.
		case opMoveMove:
			f := in.Fused
			fr.regs[in.Dst] = fr.regs[in.A]
			fr.regs[f.Dst] = fr.regs[f.A]
		case opConstArith:
			f := in.Fused
			fr.regs[in.Dst] = in.Val
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				return obj.Nil(), aerr
			}
			if br {
				pc = f.F
				continue
			}
		case opLoadFArith:
			f := in.Fused
			o := fr.regs[in.A].Obj()
			if o == nil || in.Index >= len(o.Fields) {
				vm.uncharge(st, f)
				return obj.Nil(), errBadField(code, "access")
			}
			if cowEp != 0 && o.Ep == cowEp {
				o = vm.cowShadowed(o)
			}
			fr.regs[in.Dst] = o.Fields[in.Index]
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				return obj.Nil(), aerr
			}
			if br {
				pc = f.F
				continue
			}
		case opLoadEArith:
			f := in.Fused
			o := fr.regs[in.A].Obj()
			if o == nil {
				vm.uncharge(st, f)
				return obj.Nil(), errElemNonObject(code, "load")
			}
			i := fr.regs[in.B].I()
			if i < 0 || i >= int64(len(o.Elems)) {
				vm.uncharge(st, f)
				return obj.Nil(), errElemOOB(code, "load", i, len(o.Elems))
			}
			if cowEp != 0 && o.Ep == cowEp {
				o = vm.cowShadowed(o)
			}
			fr.regs[in.Dst] = o.Elems[i]
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				return obj.Nil(), aerr
			}
			if br {
				pc = f.F
				continue
			}
		case opArithCmpBr:
			f := in.Fused
			br, aerr := arithVal(st, in, fr)
			if aerr != nil {
				vm.uncharge(st, f)
				return obj.Nil(), aerr
			}
			if br {
				vm.uncharge(st, f)
				pc = in.F
				continue
			}
			if f.bounds {
				st.BoundsChecks++
			}
			if cmpTaken(f.COp, fr.regs[f.A], fr.regs[f.B]) {
				pc = f.T
			} else {
				pc = f.F
			}
			continue
		case opArithJmp:
			f := in.Fused
			br, aerr := arithVal(st, in, fr)
			if aerr != nil {
				vm.uncharge(st, f)
				return obj.Nil(), aerr
			}
			if br {
				vm.uncharge(st, f)
				pc = in.F
				continue
			}
			if trackHot && f.T <= pc {
				vm.noteBackedge(code)
			}
			pc = f.T
			continue
		case opConstArithCmpBr:
			f := in.Fused // the Arith
			g := f.Fused  // the CmpBr
			fr.regs[in.Dst] = in.Val
			br, aerr := arithVal(st, f, fr)
			if aerr != nil {
				vm.uncharge(st, g)
				return obj.Nil(), aerr
			}
			if br {
				vm.uncharge(st, g)
				pc = f.F
				continue
			}
			if g.bounds {
				st.BoundsChecks++
			}
			if cmpTaken(g.COp, fr.regs[g.A], fr.regs[g.B]) {
				pc = g.T
			} else {
				pc = g.F
			}
			continue
		default:
			return obj.Nil(), &RuntimeError{Msg: "bad opcode " + in.Op.String()}
		}
		pc++
	}
	// Falling off the end returns self (defensive; the compiler always
	// emits Return).
	if len(fr.regs) > RegSelf {
		return fr.regs[RegSelf], nil
	}
	return obj.Nil(), nil
}

// uncharge backs out the precharged cost of a superinstruction's
// unexecuted tail: when a constituent faults or branches to its
// overflow target, the remaining constituents never run, and the
// modelled Stats must match the unfused stream, which would never have
// dispatched them.
func (vm *VM) uncharge(st *RunStats, sub *Instr) {
	for ; sub != nil; sub = sub.Fused {
		st.Cycles -= sub.Cost + vm.InstrExtra
		st.Instrs--
	}
}

// arithVal executes the arithmetic of in, writing the result register
// on success. branchF reports that control must transfer to the
// instruction's overflow target (checked overflow, or checked division
// by zero); err reports an unchecked-path fault. The static cycle cost
// — including the overflow-check surcharge when Checked — is precharged
// via Instr.Cost; only the OvflChecks counter is dynamic, because a
// checked div/mod by zero branches away before the overflow check runs,
// exactly as in the unfused interpreter.
func arithVal(st *RunStats, in *Instr, fr *frame) (branchF bool, err error) {
	a, b := fr.regs[in.A].I(), fr.regs[in.B].I()
	var v int64
	switch in.AOp {
	case ir.Add:
		v = a + b
	case ir.Sub:
		v = a - b
	case ir.Mul:
		v = a * b
	case ir.Div:
		if b == 0 {
			if in.Checked {
				return true, nil
			}
			return false, &RuntimeError{Msg: "division by zero on unchecked path"}
		}
		v = a / b
	case ir.Mod:
		if b == 0 {
			if in.Checked {
				return true, nil
			}
			return false, &RuntimeError{Msg: "modulo by zero on unchecked path"}
		}
		v = a % b
	case ir.BAnd:
		v = a & b
	case ir.BOr:
		v = a | b
	case ir.BXor:
		v = a ^ b
	}
	if in.Checked {
		st.OvflChecks++
		if v < obj.MinSmallInt || v > obj.MaxSmallInt {
			return true, nil
		}
	}
	fr.regs[in.Dst] = obj.Int(v)
	return false, nil
}

func cmpTaken(op ir.CmpKind, a, b obj.Value) bool {
	switch op {
	case ir.LT:
		return a.I() < b.I()
	case ir.LE:
		return a.I() <= b.I()
	case ir.GT:
		return a.I() > b.I()
	case ir.GE:
		return a.I() >= b.I()
	case ir.EQ:
		return a.Eq(b)
	case ir.NE:
		return !a.Eq(b)
	}
	return false
}

// chargeBytes charges the modelled bytes of an n-Value storage
// allocation and enforces Budget.MaxBytes at the allocation site —
// before the storage exists. This is what turns the old `_NewVec:
// 5e8` hole into policy: a hostile size faults with the OutOfFuel
// taxonomy here instead of asking the Go runtime for gigabytes and
// letting the poll notice one alloc too late. The charge lands even
// when the check faults, mirroring how Instrs keeps counting past
// MaxInstrs until the poll fires.
func (vm *VM) chargeBytes(st *RunStats, nvals int64) error {
	st.AllocBytes += nvals * obj.ValueBytes
	if b := vm.Budget.MaxBytes; b > 0 && st.AllocBytes-vm.bytesStart > b {
		return &RuntimeError{Kind: KindOutOfFuel,
			Msg: fmt.Sprintf("out of fuel: byte budget %d exhausted (allocation of %d bytes)",
				b, nvals*obj.ValueBytes)}
	}
	return nil
}

// newVector allocates vector storage through the arena when one is
// attached, else from the Go heap.
func (vm *VM) newVector(n int, fill obj.Value) *obj.Object {
	if vm.Arena != nil {
		return vm.Arena.NewVector(vm.World.VecMap, n, fill)
	}
	return vm.World.NewVector(n, fill)
}

// cloneObject allocates a shallow copy through the arena when one is
// attached, else from the Go heap.
func (vm *VM) cloneObject(src *obj.Object) *obj.Object {
	if vm.Arena != nil {
		return vm.Arena.Clone(src)
	}
	return src.Clone()
}

// escapeCheck is the slow half of the store barrier: a value was just
// written into an object from a different epoch (the world, or an
// earlier abandoned epoch), so if the value is bound to the current
// arena epoch it can now outlive it — mark the epoch escaped, and the
// next Arena.Reset will abandon its chunks to the GC instead of
// recycling them. Blocks are conservative: a closure's UpLocals alias
// frame slots that stay writable after the store, so any block
// crossing an epoch boundary escapes the epoch. The fast half is the
// inlined `o.Ep != vm.curEp` compare at each store site.
func (vm *VM) escapeCheck(v obj.Value) {
	if vm.curEp == 0 {
		return // no arena this run; everything is permanent
	}
	switch v.K() {
	case obj.KObj:
		// Permanent epochs: 0 (heap), the frozen COW base, and this
		// fork's shadow copies. Everything else is arena-lifetime.
		if ep := v.Obj().Ep; ep != 0 && ep != vm.cowEp && ep != vm.cowShadowEp {
			vm.Arena.MarkEscaped()
		}
	case obj.KBlock:
		vm.Arena.MarkEscaped()
	}
}

// makeVector executes NewVec: the base cost is precharged via
// Instr.Cost, the size-dependent fill cost is charged here. On the
// negative-size fault and on a byte-budget fault the base is
// uncharged — the unfused interpreter faulted before charging
// anything for this instruction, and no storage was allocated.
func (vm *VM) makeVector(st *RunStats, fr *frame, in *Instr) error {
	n := fr.regs[in.A].I()
	if n < 0 {
		// Reachable when the compiler's size guard was removed
		// (StaticIdeal); without this check make([]Value, n) would
		// panic the Go runtime.
		st.Cycles -= CostNewVecBase
		return &RuntimeError{Msg: "negative vector size on unchecked path"}
	}
	if berr := vm.chargeBytes(st, n); berr != nil {
		st.Cycles -= CostNewVecBase
		return berr
	}
	st.Cycles += n >> NewVecFillShift
	st.Allocs++
	fill := obj.Nil()
	if in.B != ir.NoReg {
		fill = fr.regs[in.B]
	}
	fr.regs[in.Dst] = obj.Obj(vm.newVector(int(n), fill))
	return nil
}

// makeClone executes CloneOp; the base cost is precharged, the
// per-field copy cost is charged here. A byte-budget fault uncharges
// the base, exactly like makeVector.
func (vm *VM) makeClone(st *RunStats, fr *frame, in *Instr) error {
	src := fr.regs[in.A]
	if src.K() != obj.KObj {
		fr.regs[in.Dst] = src // immediates clone to themselves
		return nil
	}
	so := src.Obj()
	if vm.cowEp != 0 && so.Ep == vm.cowEp {
		so = vm.cowShadowed(so) // clone sees the fork's writes
	}
	if berr := vm.chargeBytes(st, int64(len(so.Fields)+len(so.Elems))); berr != nil {
		st.Cycles -= CostCloneBase
		return berr
	}
	st.Cycles += int64(len(so.Fields)+len(so.Elems)) * CostClonePerField
	st.Allocs++
	fr.regs[in.Dst] = obj.Obj(vm.cloneObject(so))
	return nil
}

// makeBlock executes MkBlk. Closure creation pins the frame: captured
// registers are taken by address and the closure's non-local-return
// home references the frame itself, so the frame must never return to
// the pool when this activation ends (see pool.go).
func (vm *VM) makeBlock(st *RunStats, fr *frame, in *Instr) {
	fr.escaped = true
	st.Allocs++
	cl := &obj.Closure{Ast: in.Blk, Map: vm.World.BlockMap, UpLocals: map[string]*obj.Value{}}
	for _, cap := range in.Caps {
		switch {
		case cap.ByValue && cap.FromUp:
			v := *fr.up[cap.Name]
			cl.UpLocals[cap.Name] = &v
		case cap.ByValue:
			v := fr.regs[cap.Src]
			cl.UpLocals[cap.Name] = &v
		case cap.FromUp:
			cl.UpLocals[cap.Name] = fr.up[cap.Name]
		default:
			cl.UpLocals[cap.Name] = &fr.regs[cap.Src]
		}
	}
	// The closure's home for non-local return: a landing in this frame
	// when the home method was inlined here, otherwise this frame's own
	// home (method frames are their own home; block frames inherited
	// theirs).
	if in.Resume >= 0 {
		cl.Home = homeRef{fr: fr, resume: in.Resume, reg: in.A}
	} else {
		cl.Home = fr.home
	}
	fr.regs[in.Dst] = obj.Blk(cl)
}

// failError builds the error for an ir.Fail instruction, classifying by
// the failure the compiler baked in: a statically unresolvable send
// (TestMap is the receiver map lacking Sel) raises the same fault as
// the run-time lookup, and the _Error primitive (which the prelude's
// primitiveFailed: routes through) carries its own kind.
func failError(code *Code, fr *frame, in *Instr) error {
	if in.TestMap != nil {
		return errDNU(in.TestMap, in.Sel)
	}
	msg := in.Sel
	if in.A != ir.NoReg {
		msg += ": " + fr.regs[in.A].String()
	}
	kind := KindError
	if strings.HasPrefix(in.Sel, "_Error") {
		kind = KindPrimitiveFailed
	}
	return &RuntimeError{Kind: kind, Msg: fmt.Sprintf("%s (in %s)", msg, code.Name)}
}

// errDNU is the fault of a send whose receiver map m has no slot sel.
func errDNU(m *obj.Map, sel string) error {
	return &RuntimeError{Kind: KindDoesNotUnderstand, Msg: fmt.Sprintf("%s does not understand %q", m.Name, sel)}
}

func errBadField(code *Code, what string) error {
	return &RuntimeError{Msg: fmt.Sprintf("%s: bad field %s", code.Name, what)}
}

// The unchecked element-access path distinguishes its two failure
// modes: a receiver that is not a heap object at all (nil or an
// immediate, so there is nothing to index) versus an index outside the
// vector's bounds.
func errElemNonObject(code *Code, what string) error {
	return &RuntimeError{Msg: fmt.Sprintf("%s: element %s on non-object receiver (unchecked path)", code.Name, what)}
}

func errElemOOB(code *Code, what string, i int64, n int) error {
	return &RuntimeError{Msg: fmt.Sprintf("%s: element %s index %d out of bounds (length %d) (unchecked path)", code.Name, what, i, n)}
}

// argVals gathers argument registers into a per-VM scratch buffer,
// avoiding a Go allocation per send. Safe because every consumer
// (invoke, invokeClosure, execPrim, the assignment-slot store) copies
// or fully consumes the values before any nested guest execution could
// refill the buffer.
func (vm *VM) argVals(regs []ir.Reg, fr *frame) []obj.Value {
	if cap(vm.argScratch) < len(regs) {
		vm.argScratch = make([]obj.Value, len(regs), len(regs)+8)
	}
	out := vm.argScratch[:len(regs)]
	for i, r := range regs {
		out[i] = fr.regs[r]
	}
	return out
}

// execSend performs a dynamically-dispatched send with a monomorphic
// inline cache (Deutsch & Schiffman).
func (vm *VM) execSend(in *Instr, fr *frame, code *Code) (obj.Value, error) {
	st := &vm.Stats
	recv := fr.regs[in.Args[0]]
	args := vm.argVals(in.Args[1:], fr)

	// Blocks answer the value protocol directly.
	if recv.K() == obj.KBlock && strings.HasPrefix(in.Sel, "value") {
		st.Cycles += CostBlockValue
		st.BlockValues++
		return vm.invokeClosure(recv.Blk(), args)
	}

	if in.Direct {
		st.Cycles += CostCall
		st.Calls++
	} else {
		st.Sends++
		st.Cycles += CostSendICHit + vm.SendExtra
	}

	m := vm.World.MapOf(recv)
	ic := vm.icFor(code, in.IC)
	var slot *obj.Slot
	var holder *obj.Object
	if ic.m == m && !in.Direct {
		st.ICHits++
		slot = ic.slot
		holder = ic.holder
	} else if e := ic.picLookup(vm, m, in.Direct); e != nil {
		st.ICHits++
		st.Cycles += CostPICExtra
		slot = e.slot
		holder = e.holder
	} else {
		if !in.Direct {
			st.ICMisses++
			if vm.MissHandlers {
				st.Cycles += CostSendMissHandler - CostSendICHit
			} else {
				st.Cycles += CostSendICMiss - CostSendICHit
			}
		}
		r := obj.Lookup(m, in.Sel)
		if r == nil {
			return obj.Nil(), errDNU(m, in.Sel)
		}
		slot = r.Slot
		holder = r.Holder
		// The old monomorphic entry moves into the PIC before being
		// replaced (so alternating receivers settle into PIC hits).
		if ic.m != nil && ic.m != m {
			ic.picStore(vm, ic.m, ic.slot, ic.holder)
		}
		ic.m = m
		ic.slot = slot
		ic.holder = holder
		ic.picStore(vm, m, slot, holder)
	}

	switch slot.Kind {
	case obj.ConstSlot, obj.ParentSlot:
		return slot.Value, nil
	case obj.DataSlot:
		target := holder
		if target == nil {
			target = recv.Obj()
		}
		if target == nil {
			return obj.Nil(), &RuntimeError{Msg: "data slot on immediate"}
		}
		if vm.cowEp != 0 && target.Ep == vm.cowEp {
			target = vm.cowShadowed(target)
		}
		return target.Fields[slot.Index], nil
	case obj.AssignSlot:
		target := holder
		if target == nil {
			target = recv.Obj()
		}
		if target == nil {
			return obj.Nil(), &RuntimeError{Msg: "assignment on immediate"}
		}
		if target.Ep != vm.curEp {
			target = vm.storeSlow(target, args[0])
		}
		if vm.World.ShapeTracking {
			vm.World.NoteFieldStore(target.Map, slot.Index, args[0])
		}
		target.Fields[slot.Index] = args[0]
		return args[0], nil
	case obj.MethodSlot:
		callee, err := vm.CodeFor(slot.Meth, m)
		if err != nil {
			return obj.Nil(), err
		}
		return vm.invoke(callee, recv, args, nil)
	}
	return obj.Nil(), &RuntimeError{Msg: "bad slot kind in send"}
}

// invokeClosure runs a block closure out of line.
func (vm *VM) invokeClosure(cl *obj.Closure, args []obj.Value) (obj.Value, error) {
	code, err := vm.blockCodeFor(cl)
	if err != nil {
		return obj.Nil(), err
	}
	vm.depth++
	if vm.depth > vm.Stats.MaxDepth {
		vm.Stats.MaxDepth = vm.depth
	}
	if vm.depth > vm.depthLimit() {
		vm.depth--
		return obj.Nil(), &RuntimeError{Kind: KindStackOverflow, Msg: "stack overflow"}
	}
	fr := vm.getFrame(code.NumRegs)
	fr.up = cl.UpLocals
	fr.home, _ = cl.Home.(homeRef)
	for i, a := range args {
		if RegParamBase+i < len(fr.regs) {
			fr.regs[RegParamBase+i] = a
		}
	}
	defer func() {
		fr.dead = true
		vm.depth--
		vm.putFrame(fr)
	}()
	return vm.exec(code, fr)
}

// execPrim runs an out-of-line robust primitive with all checks.
func (vm *VM) execPrim(in *Instr, fr *frame) (obj.Value, error) {
	st := &vm.Stats
	st.Cycles += CostPrimOp
	recv := fr.regs[in.Args[0]]
	args := vm.argVals(in.Args[1:], fr)
	fail := func(why string) (obj.Value, error) {
		if in.FailBlk != ir.NoReg {
			fb := fr.regs[in.FailBlk]
			if fb.K() == obj.KBlock {
				return vm.invokeClosure(fb.Blk(), nil)
			}
		}
		return obj.Nil(), &RuntimeError{Kind: KindPrimitiveFailed,
			Msg: fmt.Sprintf("primitive %s failed: %s", in.Sel, why)}
	}
	wantInt := func(v obj.Value) bool { return v.K() == obj.KInt }
	switch in.Sel {
	case "_IntAdd:", "_IntSub:", "_IntMul:", "_IntDiv:", "_IntMod:",
		"_IntAnd:", "_IntOr:", "_IntXor:":
		if !wantInt(recv) || len(args) != 1 || !wantInt(args[0]) {
			return fail("not an integer")
		}
		a, b := recv.I(), args[0].I()
		var v int64
		switch in.Sel {
		case "_IntAdd:":
			v = a + b
		case "_IntSub:":
			v = a - b
		case "_IntMul:":
			v = a * b
		case "_IntDiv:":
			if b == 0 {
				return fail("division by zero")
			}
			v = a / b
		case "_IntMod:":
			if b == 0 {
				return fail("modulo by zero")
			}
			v = a % b
		case "_IntAnd:":
			v = a & b
		case "_IntOr:":
			v = a | b
		case "_IntXor:":
			v = a ^ b
		}
		if v < obj.MinSmallInt || v > obj.MaxSmallInt {
			return fail("overflow")
		}
		return obj.Int(v), nil
	case "_IntLT:", "_IntLE:", "_IntGT:", "_IntGE:", "_IntEQ:", "_IntNE:":
		if !wantInt(recv) || len(args) != 1 || !wantInt(args[0]) {
			return fail("not an integer")
		}
		a, b := recv.I(), args[0].I()
		var r bool
		switch in.Sel {
		case "_IntLT:":
			r = a < b
		case "_IntLE:":
			r = a <= b
		case "_IntGT:":
			r = a > b
		case "_IntGE:":
			r = a >= b
		case "_IntEQ:":
			r = a == b
		case "_IntNE:":
			r = a != b
		}
		return vm.World.Bool(r), nil
	case "_Eq:":
		return vm.World.Bool(recv.Eq(args[0])), nil
	case "_At:":
		o := recv.Obj()
		if recv.K() != obj.KObj || !o.Map.Indexable || len(args) != 1 || !wantInt(args[0]) {
			return fail("bad receiver or index")
		}
		i := args[0].I()
		if i < 0 || i >= int64(len(o.Elems)) {
			return fail("index out of bounds")
		}
		if vm.cowEp != 0 && o.Ep == vm.cowEp {
			o = vm.cowShadowed(o)
		}
		return o.Elems[i], nil
	case "_At:Put:":
		o := recv.Obj()
		if recv.K() != obj.KObj || !o.Map.Indexable || len(args) != 2 || !wantInt(args[0]) {
			return fail("bad receiver or index")
		}
		i := args[0].I()
		if i < 0 || i >= int64(len(o.Elems)) {
			return fail("index out of bounds")
		}
		if o.Ep != vm.curEp {
			o = vm.storeSlow(o, args[1])
		}
		o.Elems[i] = args[1]
		return args[1], nil
	case "_Size":
		if recv.K() != obj.KObj || !recv.Obj().Map.Indexable {
			return fail("not a vector")
		}
		return obj.Int(int64(len(recv.Obj().Elems))), nil
	case "_NewVec:", "_NewVec:Fill:":
		if len(args) < 1 || !wantInt(args[0]) || args[0].I() < 0 {
			return fail("bad size")
		}
		fill := obj.Nil()
		if len(args) > 1 {
			fill = args[1]
		}
		// The byte-budget fault is a real OutOfFuel error, not a
		// primitive failure: a guest's _IfFail: block must not be able
		// to swallow resource exhaustion.
		if berr := vm.chargeBytes(st, args[0].I()); berr != nil {
			return obj.Nil(), berr
		}
		st.Allocs++
		return obj.Obj(vm.newVector(int(args[0].I()), fill)), nil
	case "_Clone":
		if recv.K() != obj.KObj {
			return recv, nil
		}
		ro := recv.Obj()
		if vm.cowEp != 0 && ro.Ep == vm.cowEp {
			ro = vm.cowShadowed(ro) // clone sees the fork's writes
		}
		if berr := vm.chargeBytes(st, int64(len(ro.Fields)+len(ro.Elems))); berr != nil {
			return obj.Nil(), berr
		}
		st.Allocs++
		return obj.Obj(vm.cloneObject(ro)), nil
	case "_Print":
		fmt.Fprint(vm.Out, recv.String())
		return recv, nil
	case "_PrintLine":
		fmt.Fprintln(vm.Out, recv.String())
		return recv, nil
	}
	return fail("unknown primitive")
}
