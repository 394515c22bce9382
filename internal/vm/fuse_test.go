package vm_test

import (
	"strings"
	"testing"

	"selfgo/internal/ast"
	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/vm"
)

// newFusedHarness is newHarness with the superinstruction pass applied
// after assembly, the way the public package wires it.
func newFusedHarness(t *testing.T, cfg core.Config, src string) *harness {
	t.Helper()
	h := newHarness(t, cfg, src)
	inner := h.vm.CompileMethod
	h.vm.CompileMethod = func(m *obj.Method, rmap *obj.Map) (*vm.Code, error) {
		c, err := inner(m, rmap)
		if err == nil {
			vm.Fuse(c)
		}
		return c, err
	}
	innerBlk := h.vm.CompileBlock
	h.vm.CompileBlock = func(b *ast.Block, upNames []string) (*vm.Code, error) {
		c, err := innerBlk(b, upNames)
		if err == nil {
			vm.Fuse(c)
		}
		return c, err
	}
	return h
}

const fuseSrc = `
sumTo: n = ( | s <- 0. i <- 0 | [ i < n ] whileTrue: [ s: s + i. i: i + 1 ]. s ).
fib: n = ( (n < 2) ifTrue: [ n ] False: [ (fib: n - 1) + (fib: n - 2) ] ).
quot: a Over: b = ( a / b ).
square: n = ( n * n ).
`

// TestFusePreservesModelledTotals: fusing a stream must preserve the
// modelled code exactly — same total constituent count (sum of N), same
// total static cost, same Bytes — while producing strictly fewer
// dispatches, and every branch target must land on a group head.
func TestFusePreservesModelledTotals(t *testing.T) {
	h := newHarness(t, core.NewSELF, fuseSrc)
	fusedAny := false
	for _, sel := range []string{"sumTo:", "fib:", "quot:Over:", "square:"} {
		plain := h.codeFor(t, sel)
		fused := &vm.Code{Name: plain.Name, NumRegs: plain.NumRegs, Bytes: plain.Bytes}
		fused.Instrs = append(fused.Instrs, plain.Instrs...)
		vm.Fuse(fused)

		var plainCost, fusedCost, fusedN int64
		for i := range plain.Instrs {
			plainCost += plain.Instrs[i].Cost
		}
		for i := range fused.Instrs {
			in := &fused.Instrs[i]
			fusedN += int64(in.N)
			fusedCost += in.Cost
			if _, ok := vm.FusedHeadOp(in.Op); ok {
				fusedAny = true
				if in.Fused == nil {
					t.Errorf("%s@%d: fused op with nil chain", sel, i)
				}
			} else if in.Fused != nil {
				t.Errorf("%s@%d: ordinary op carries a fused chain", sel, i)
			}
			// Branch targets (including those held by interior
			// constituents) must be valid new pcs.
			for f := in; f != nil; f = f.Fused {
				checkTarget := func(pc int, kind string) {
					if pc < 0 || pc >= len(fused.Instrs) {
						t.Errorf("%s@%d: %s target %d out of range [0,%d)", sel, i, kind, pc, len(fused.Instrs))
					}
				}
				switch f.Op {
				case vm.OpJmp, vm.OpArithJmp:
					if f.Op == vm.OpJmp {
						checkTarget(f.T, "jmp")
					}
				case ir.CmpBr, ir.TypeTest:
					checkTarget(f.T, "T")
					checkTarget(f.F, "F")
				}
				if f.Checked {
					checkTarget(f.F, "ovfl")
				}
			}
		}
		if fusedN != int64(len(plain.Instrs)) {
			t.Errorf("%s: sum of N = %d, want %d (unfused instr count)", sel, fusedN, len(plain.Instrs))
		}
		if fusedCost != plainCost {
			t.Errorf("%s: fused static cost %d != unfused %d", sel, fusedCost, plainCost)
		}
		if fused.Bytes != plain.Bytes {
			t.Errorf("%s: fusion changed modelled Bytes %d -> %d", sel, plain.Bytes, fused.Bytes)
		}
	}
	if !fusedAny {
		t.Error("no superinstruction produced on any test method; patterns never fire")
	}
}

// TestFusedExecutionMatchesUnfused: the same programs produce the same
// values and the same full RunStats with and without fusion, including
// the checked-arith early exits (overflow branch, division by zero)
// that trigger the uncharge path inside fused groups.
func TestFusedExecutionMatchesUnfused(t *testing.T) {
	for _, cfg := range []core.Config{core.NewSELF, core.ST80, core.StaticIdealC} {
		plain := newHarness(t, cfg, fuseSrc)
		fused := newFusedHarness(t, cfg, fuseSrc)
		calls := []struct {
			sel  string
			args []obj.Value
		}{
			{"sumTo:", []obj.Value{obj.Int(500)}},
			{"fib:", []obj.Value{obj.Int(12)}},
			{"quot:Over:", []obj.Value{obj.Int(91), obj.Int(7)}},
			{"square:", []obj.Value{obj.Int(9)}},
			// Overflow: square of 2^40 exceeds MaxSmallInt, taking the
			// checked-arith overflow branch (fail path under configs
			// that keep the check).
			{"square:", []obj.Value{obj.Int(1 << 40)}},
			// Division by zero: checked configs branch to the failure
			// path, StaticIdeal faults on the unchecked path; either
			// way fused and unfused must agree.
			{"quot:Over:", []obj.Value{obj.Int(5), obj.Int(0)}},
		}
		for _, c := range calls {
			pv, perr := plain.vm.RunMethod(lookupMeth(t, plain, c.sel), obj.Obj(plain.w.Lobby), c.args...)
			fv, ferr := fused.vm.RunMethod(lookupMeth(t, fused, c.sel), obj.Obj(fused.w.Lobby), c.args...)
			if (perr == nil) != (ferr == nil) {
				t.Fatalf("%s %s: error mismatch: plain=%v fused=%v", cfg.Name, c.sel, perr, ferr)
			}
			if perr == nil && !pv.Eq(fv) {
				t.Fatalf("%s %s: value mismatch: plain=%s fused=%s", cfg.Name, c.sel, pv, fv)
			}
			if plain.vm.Stats != fused.vm.Stats {
				t.Fatalf("%s %s: stats diverged:\nplain: %+v\nfused: %+v", cfg.Name, c.sel, plain.vm.Stats, fused.vm.Stats)
			}
		}
	}
}

func lookupMeth(t *testing.T, h *harness, sel string) *obj.Method {
	t.Helper()
	r := obj.Lookup(h.w.Lobby.Map, sel)
	if r == nil {
		t.Fatalf("no %q", sel)
	}
	return r.Slot.Meth
}

// TestFuseRespectsBranchTargets: an instruction that is a branch target
// must stay a group head — fusing it into the middle of a group would
// let a jump skip the earlier constituents.
func TestFuseRespectsBranchTargets(t *testing.T) {
	// Hand-built stream:
	//   0: r2 <- const 1
	//   1: r2 <- r2 + r2        <- branch target
	//   2: if r2 < r3 ->1 else ->3
	//   3: ret r2
	// (0,1) must NOT fuse (1 is a target); (1,2) may fuse into
	// ArithCmpBr, and the loop branch must then point at the fused head.
	mk := func(in vm.Instr) vm.Instr {
		in.Cost = vm.StaticCost(&in)
		in.N = 1
		return in
	}
	c := &vm.Code{Name: "handmade", NumRegs: 4}
	c.Instrs = []vm.Instr{
		mk(vm.Instr{Op: ir.Const, Dst: 2, Val: obj.Int(1), Resume: -1}),
		mk(vm.Instr{Op: ir.Arith, Dst: 2, A: 2, B: 2, AOp: ir.Add, Resume: -1}),
		mk(vm.Instr{Op: ir.CmpBr, A: 2, B: 3, COp: ir.LT, T: 1, F: 3, Resume: -1}),
		mk(vm.Instr{Op: ir.Return, A: 2, Resume: -1}),
	}
	vm.Fuse(c)
	if len(c.Instrs) != 3 {
		t.Fatalf("got %d instrs, want 3:\n%s", len(c.Instrs), c.Disasm())
	}
	if c.Instrs[0].Op != ir.Const {
		t.Errorf("instr 0 fused across a branch target: %s", c.Instrs[0])
	}
	if c.Instrs[1].Op != vm.OpArithCmpBr {
		t.Errorf("instr 1 = %s, want fused arith+cmpbr", c.Instrs[1])
	}
	if got := c.Instrs[1].Fused.T; got != 1 {
		t.Errorf("loop branch T = %d after remap, want 1 (the fused head)", got)
	}
	if got := c.Instrs[1].Fused.F; got != 2 {
		t.Errorf("loop branch F = %d after remap, want 2 (the return)", got)
	}
}

// TestFusedDisasm: fused instructions render their constituents, so
// disassembly stays readable.
func TestFusedDisasm(t *testing.T) {
	h := newFusedHarness(t, core.NewSELF, fuseSrc)
	d := h.codeFor(t, "sumTo:").Disasm()
	if !strings.Contains(d, "fused{") {
		t.Errorf("disassembly of a fused method shows no fused instruction:\n%s", d)
	}
}
