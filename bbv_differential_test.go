package selfgo_test

import (
	"errors"
	"fmt"
	"testing"

	"selfgo"
	"selfgo/internal/bench"
)

// bbvStrategyConfig derives a head-to-head configuration from the
// paper's new compiler with the given specialization strategy.
func bbvStrategyConfig(strat selfgo.Strategy) selfgo.Config {
	cfg := selfgo.NewSELF
	cfg.Strategy = strat
	cfg.Name = fmt.Sprintf("%s (%s)", cfg.Name, strat)
	return cfg
}

// TestBBVVsSplitBenchmarks is the benchmark half of the BBV
// differential oracle: every benchmark, run under split, bbv and both,
// must produce the identical check value. Cycles and type-test counts
// legitimately differ between strategies (that difference IS the
// experiment, tabulated in EXPERIMENTS.md) — they are asserted
// recorded, never equal. Versioning strategies must actually version.
func TestBBVVsSplitBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			split, err := bench.Run(b, bbvStrategyConfig(selfgo.StrategySplit))
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			for _, strat := range []selfgo.Strategy{selfgo.StrategyBBV, selfgo.StrategyBoth} {
				m, err := bench.Run(b, bbvStrategyConfig(strat))
				if err != nil {
					t.Fatalf("%s: %v", strat, err)
				}
				if m.Value != split.Value {
					t.Errorf("%s: value %d, split computed %d", strat, m.Value, split.Value)
				}
				if m.Cycles <= 0 {
					t.Errorf("%s: no cycles recorded", strat)
				}
				if m.Run.BBVVersions <= 0 {
					t.Errorf("%s: no basic-block versions materialized", strat)
				}
				if m.Run.BBVVersionBytes <= 0 {
					t.Errorf("%s: no modelled version bytes recorded", strat)
				}
				if m.Run.BBVVersions < m.Run.BBVCapHits && m.Run.BBVCapHits > 0 {
					// Cap hits without a comparable number of versions
					// would mean the generic fallback is serving flows
					// the table could still specialize.
					t.Logf("%s: %d cap hits over %d versions", strat, m.Run.BBVCapHits, m.Run.BBVVersions)
				}
			}
			if split.Run.BBVVersions != 0 || split.Run.BBVCapHits != 0 {
				t.Errorf("split recorded BBV activity: %+v", split.Run)
			}
		})
	}
}

// bbvFaultPrograms fault in every RuntimeError category the guest can
// reach organically: lookup failure, unhandled primitive failure,
// bounds violation, and stack exhaustion — each at the bottom of a send
// chain so a Self-level backtrace is captured.
var bbvFaultPrograms = []struct {
	name string
	src  string
	sel  string
}{
	{
		name: "does-not-understand",
		src: `
		inner = ( nil zork ).
		mid = ( inner ).
		go = ( mid ).`,
		sel: "go",
	},
	{
		// Split's type analysis proves x is an int and compiles the
		// failed lookup as a stub; bbv leaves the send dynamic and the
		// lookup fails at run time. The fault must read the same.
		name: "does-not-understand-analyzed",
		src: `
		inner = ( | x | x: 3. x zork ).
		mid = ( inner ).
		go = ( mid ).`,
		sel: "go",
	},
	{
		name: "divide-by-zero",
		src: `
		shrink: n = ( (n = 0) ifTrue: [ ^ 10 / n ]. shrink: n - 1 ).
		go = ( shrink: 5 ).`,
		sel: "go",
	},
	{
		name: "vector-bounds",
		src: `
		poke: v At: i = ( v at: i Put: 99 ).
		go = ( | v | v: vector copySize: 4 FillWith: 0. poke: v At: 17 ).`,
		sel: "go",
	},
	{
		name: "stack-overflow",
		src: `
		spin: n = ( 1 + (spin: n + 1) ).
		go = ( spin: 0 ).`,
		sel: "go",
	},
}

// TestBBVFaultDifferential: faults must carry the identical taxonomy
// (RuntimeError kind and message) under every strategy, and every
// strategy must capture a Self-level backtrace. The traces themselves
// are asserted recorded, not equal: the strategies compile different
// inline structure, so frame boundaries may differ while the fault is
// the same.
func TestBBVFaultDifferential(t *testing.T) {
	for _, p := range bbvFaultPrograms {
		p := p
		t.Run(p.name, func(t *testing.T) {
			var ref *selfgo.RuntimeError
			for _, strat := range []selfgo.Strategy{selfgo.StrategySplit, selfgo.StrategyBBV, selfgo.StrategyBoth} {
				cfg := bbvStrategyConfig(strat)
				sys, err := selfgo.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.LoadSource(p.src); err != nil {
					t.Fatalf("[%s] load: %v", cfg.Name, err)
				}
				_, err = sys.Call(p.sel)
				if err == nil {
					t.Fatalf("[%s] expected a fault, got none", cfg.Name)
				}
				var re *selfgo.RuntimeError
				if !errors.As(err, &re) {
					t.Fatalf("[%s] not a RuntimeError: %v", cfg.Name, err)
				}
				if re.Backtrace() == "" {
					t.Errorf("[%s] no Self-level backtrace captured", cfg.Name)
				}
				if ref == nil {
					ref = re
					continue
				}
				if re.Kind != ref.Kind || re.Msg != ref.Msg {
					t.Errorf("[%s] fault diverged: kind=%v msg=%q, split: kind=%v msg=%q",
						cfg.Name, re.Kind, re.Msg, ref.Kind, ref.Msg)
				}
			}
		})
	}
}

// FuzzBBVDifferential feeds arbitrary program text to the split and
// bbv strategies under a tight budget and fails on any observable
// divergence: error presence, runtime-error kind and message, or the
// result value. RunStats are deliberately NOT compared — versioning
// charges a different instruction stream, and the modelled-cost
// difference is the measured result, not a bug. Registered in ci.sh's
// fuzz smoke stage.
func FuzzBBVDifferential(f *testing.F) {
	seeds := []string{
		"3 + 4 * 2",
		"| s <- 0 | 1 upTo: 100 Do: [ :i | s: s + i ]. s",
		"| v | v: vector copySize: 10. v fillFrom: [ :i | i * i ]. (v at: 3) + v size",
		"[ :x | x * 2 ] value: 21",
		"| b | b: [ 5 ]. (b value) + (b value)",
		"1 / 0",
		"nil zork",
		"(9000000000000000000 * 9000000000000000000) + 1",
		"| v | v: (vector copySize: 2 FillWith: 0). v at: 17",
		"'hello' printLine. 0",
		"(3 < 4) ifTrue: [ 'y' ] False: [ 'n' ]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		split, err := selfgo.NewSystem(bbvStrategyConfig(selfgo.StrategySplit))
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := selfgo.NewSystem(bbvStrategyConfig(selfgo.StrategyBBV))
		if err != nil {
			t.Fatal(err)
		}
		bud := selfgo.Budget{MaxInstrs: 200_000, MaxDepth: 200, MaxAllocs: 100_000}
		split.SetBudget(bud)
		lazy.SetBudget(bud)

		sres, serr := split.Eval(src)
		bres, berr := lazy.Eval(src)
		if (serr == nil) != (berr == nil) {
			t.Fatalf("error presence diverged:\nsplit: %v\nbbv: %v", serr, berr)
		}
		if serr != nil {
			var sre, bre *selfgo.RuntimeError
			if errors.As(serr, &sre) != errors.As(berr, &bre) {
				t.Fatalf("runtime-error presence diverged:\nsplit: %v\nbbv: %v", serr, berr)
			}
			if sre != nil {
				if sre.Kind != bre.Kind {
					t.Fatalf("fault kind diverged:\nsplit: kind=%v msg=%q\nbbv: kind=%v msg=%q",
						sre.Kind, sre.Msg, bre.Kind, bre.Msg)
				}
				if sre.Msg != bre.Msg {
					t.Fatalf("fault message diverged:\nsplit: kind=%v msg=%q\nbbv: kind=%v msg=%q",
						sre.Kind, sre.Msg, bre.Kind, bre.Msg)
				}
			}
			return
		}
		if sv, bv := sres.Value.String(), bres.Value.String(); sv != bv {
			t.Fatalf("value diverged: split=%s bbv=%s", sv, bv)
		}
	})
}
