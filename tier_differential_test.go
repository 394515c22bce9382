package selfgo_test

import (
	"reflect"
	"sync"
	"testing"

	"selfgo"
	"selfgo/internal/ast"
	"selfgo/internal/bench"
	"selfgo/internal/core"
	"selfgo/internal/ir"
	"selfgo/internal/obj"
	"selfgo/internal/parser"
	"selfgo/internal/prelude"
	"selfgo/internal/vm"
)

// legacyMeasurement is what the hand-built pre-tiering compile path
// produces for one benchmark: the oracle the -tier=opt differential
// compares against.
type legacyMeasurement struct {
	Value     int64
	Run       selfgo.RunStats
	Methods   int
	CodeBytes int
}

// legacyRun executes b the way the system did before the pass pipeline
// and tiers existed: a bare core.Compiler driven directly, its graphs
// linearized with vm.Assemble + vm.Fuse, a degraded-config retry on
// compile failure, and a private VM. No Pipeline, no Tier, no cache
// sharing — the compile path the refactor replaced, reconstructed from
// primitives so any drift the refactor introduced shows up here.
func legacyRun(t *testing.T, b bench.Benchmark, cfg selfgo.Config) *legacyMeasurement {
	t.Helper()
	w := obj.NewWorld()
	for _, src := range []string{prelude.Source, b.Source} {
		f, err := parser.ParseFile(src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := w.Load(f); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
	w.Finalize()

	m := &vm.VM{
		World:        w,
		Customize:    cfg.Customization,
		SendExtra:    int64(cfg.SendOverheadExtra),
		InstrExtra:   int64(cfg.PerInstrOverhead),
		MissHandlers: cfg.CallSiteICMissHandlers,
		PICs:         cfg.PolymorphicInlineCaches,
	}
	comp := core.New(w, cfg)
	degr := core.New(w, core.Degraded(cfg))
	assemble := func(g *ir.Graph) *vm.Code {
		c := vm.Assemble(g)
		if !cfg.NoSuperinstructions {
			vm.Fuse(c)
		}
		return c
	}
	m.CompileMethod = func(meth *obj.Method, rmap *obj.Map) (*vm.Code, error) {
		g, _, err := comp.CompileMethod(meth, rmap)
		if err != nil {
			if g, _, err = degr.CompileMethod(meth, rmap); err != nil {
				return nil, err
			}
			m.Compile.Degraded++
		}
		return assemble(g), nil
	}
	m.CompileBlock = func(blk *ast.Block, upNames []string) (*vm.Code, error) {
		g, _, err := comp.CompileBlock(blk, upNames)
		if err != nil {
			if g, _, err = degr.CompileBlock(blk, upNames); err != nil {
				return nil, err
			}
			m.Compile.Degraded++
		}
		c := assemble(g)
		c.IsBlock = true
		return c, nil
	}

	r := obj.Lookup(w.Lobby.Map, b.Entry)
	if r == nil || r.Slot.Kind != obj.MethodSlot {
		t.Fatalf("%s: no entry %q", b.Name, b.Entry)
	}
	m.Stats = vm.RunStats{}
	v, err := m.RunMethod(r.Slot.Meth, obj.Obj(w.Lobby))
	if err != nil {
		t.Fatalf("%s under %s (legacy): %v", b.Name, cfg.Name, err)
	}
	return &legacyMeasurement{
		Value:     v.I(),
		Run:       m.Stats,
		Methods:   m.Compile.Methods,
		CodeBytes: m.Compile.CodeBytes,
	}
}

// TestTierOptBitIdentical is the committed differential the refactor is
// gated on: for every benchmark in the suite, the tiered system at
// -tier=opt (both the private NewSystem and the shared NewTieredSystem
// construction) agrees with the hand-built legacy compile path in the
// check value and EVERY modelled quantity — the full RunStats struct,
// methods compiled, and code bytes emitted. The pipeline refactor,
// hotness counters and promotion machinery must be invisible in opt
// mode.
func TestTierOptBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential is slow; skipped in -short mode")
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg := selfgo.NewSELF
			want := legacyRun(t, b, cfg)

			check := func(label string, sys *selfgo.System, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := sys.LoadSource(b.Source); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				res, err := sys.Call(b.Entry)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Value.I() != want.Value {
					t.Errorf("%s: value = %d, legacy = %d", label, res.Value.I(), want.Value)
				}
				if !reflect.DeepEqual(res.Run, want.Run) {
					t.Errorf("%s: RunStats diverge from legacy:\n got %+v\nwant %+v", label, res.Run, want.Run)
				}
				if res.Compile.Methods != want.Methods || res.Compile.CodeBytes != want.CodeBytes {
					t.Errorf("%s: compile record diverges: %d methods/%d bytes, legacy %d/%d",
						label, res.Compile.Methods, res.Compile.CodeBytes, want.Methods, want.CodeBytes)
				}
			}

			sys, err := selfgo.NewSystem(cfg)
			check("NewSystem", sys, err)
			tiered, err := selfgo.NewTieredSystem(cfg, selfgo.ModeOpt, 0)
			check("NewTieredSystem(opt)", tiered, err)
		})
	}
}

// inlineEvents pulls the inline pass's event count out of a compile-log
// entry's per-pass breakdown.
func inlineEvents(t *testing.T, e selfgo.MethodCompile) int {
	t.Helper()
	for _, ps := range e.Stats.Passes {
		if ps.Name == "inline" {
			return ps.Events
		}
	}
	t.Fatalf("compile of %s carries no inline pass stat", e.Name)
	return 0
}

// assertAdaptivePromotes runs one benchmark in adaptive mode with a low
// threshold and asserts the acceptance criteria: at least one promotion
// is recorded, the result is unchanged across the tier swap, and the
// promoted code of some hot method inlines sends the baseline tier had
// left dynamically dispatched (witnessed by the inline pass stats of
// the two compile-log entries).
func assertAdaptivePromotes(t *testing.T, name string) {
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	sys, err := selfgo.NewTieredSystem(selfgo.NewSELF, selfgo.ModeAdaptive, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadSource(b.Source); err != nil {
		t.Fatal(err)
	}
	first, err := sys.Call(b.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if first.Run.Promotions < 1 {
		t.Errorf("cold run requested %d promotions, want >= 1", first.Run.Promotions)
	}
	if first.Run.Harvests < 1 {
		t.Errorf("cold run harvested %d feedback snapshots, want >= 1", first.Run.Harvests)
	}
	sys.DrainPromotions()
	steady, err := sys.Call(b.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if first.Value.I() != steady.Value.I() {
		t.Fatalf("value changed across promotion: %d -> %d", first.Value.I(), steady.Value.I())
	}
	if b.HasExpect && steady.Value.I() != b.Expect {
		t.Fatalf("steady value = %d, want %d", steady.Value.I(), b.Expect)
	}
	ps := sys.PromotionStats()
	if ps.Installed < 1 {
		t.Fatalf("%d promotions installed, want >= 1 (fails=%d discards=%d)", ps.Installed, ps.Fails, ps.Discards)
	}

	// Find a method compiled at both tiers whose optimizing recompile
	// inlined sends the baseline left dispatched: baseline's tier table
	// turns InlineMethods off, so any promoted method that now inlines a
	// user method is executing a send baseline dispatched dynamically.
	type pair struct{ base, opt *selfgo.MethodCompile }
	byName := map[string]*pair{}
	for _, e := range sys.CompileLog() {
		e := e
		p := byName[e.Name]
		if p == nil {
			p = &pair{}
			byName[e.Name] = p
		}
		switch e.Tier {
		case "baseline":
			if p.base == nil {
				p.base = &e
			}
		case "optimizing":
			if p.opt == nil {
				p.opt = &e
			}
		}
	}
	// Baseline may still inline trivial primitive wrappers (its
	// InlinePrimitives knob is kept), so the witness is strictly MORE
	// method inlining at the optimizing tier, not any-vs-none.
	found := false
	for _, p := range byName {
		if p.base == nil || p.opt == nil {
			continue
		}
		if p.opt.Stats.InlinedMethods > p.base.Stats.InlinedMethods &&
			inlineEvents(t, *p.opt) > inlineEvents(t, *p.base) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no promoted method inlines a send its baseline compile left dispatched (log: %d entries)", len(sys.CompileLog()))
	}
}

func TestAdaptivePromotesRichards(t *testing.T) {
	assertAdaptivePromotes(t, "richards")
}

func TestAdaptivePromotesStanford(t *testing.T) {
	// queens is a plain Stanford benchmark with hot inner methods.
	assertAdaptivePromotes(t, "queens")
}

// TestConcurrentAdaptivePromotion: N worker VMs sharing one adaptive
// cache all hammer the same hot methods. Promotion must stay
// single-flight (at most one optimizing compile per method no matter
// how many workers cross the threshold), the Get side must stay
// compile-once, and every worker must compute the right value before
// and after the swaps land. Run under -race this also checks the
// hotness counters and the promote/install path for data races.
func TestConcurrentAdaptivePromotion(t *testing.T) {
	b, ok := bench.ByName("richards")
	if !ok {
		t.Fatal("no richards benchmark")
	}
	root, err := selfgo.NewTieredSystem(selfgo.NewSELF, selfgo.ModeAdaptive, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.LoadSource(b.Source); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	systems := make([]*selfgo.System, workers)
	systems[0] = root
	for i := 1; i < workers; i++ {
		if systems[i], err = root.Fork(); err != nil {
			t.Fatal(err)
		}
	}
	values := make([]int64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := systems[i].Call(b.Entry)
			if err != nil {
				errs[i] = err
				return
			}
			values[i] = res.Value.I()
		}()
	}
	wg.Wait()
	root.DrainPromotions()

	for i := range systems {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if values[i] != b.Expect {
			t.Errorf("worker %d computed %d, want %d", i, values[i], b.Expect)
		}
	}

	ps := root.PromotionStats()
	if ps.Installed < 1 {
		t.Fatalf("%d promotions installed, want >= 1 (fails=%d discards=%d)", ps.Installed, ps.Fails, ps.Discards)
	}
	if ps.Fails != 0 {
		t.Errorf("%d promotions failed", ps.Fails)
	}

	// No double compile: single-flight holds per tier — each method
	// compiles at most once at baseline (Get flight) and at most once at
	// optimizing (promotion), across all 8 workers.
	perTier := map[string]map[string]int{}
	for _, e := range root.CompileLog() {
		if perTier[e.Tier] == nil {
			perTier[e.Tier] = map[string]int{}
		}
		perTier[e.Tier][e.Name]++
	}
	for tier, names := range perTier {
		for name, n := range names {
			if n > 1 {
				t.Errorf("%s compiled %d times at tier %s; single-flight broken", name, n, tier)
			}
		}
	}
	// Every install is exactly one optimizing promotion compile.
	if n := len(perTier["optimizing"]); int64(n) != ps.Installed {
		t.Errorf("%d optimizing compiles vs %d installs: promotions must account one compile each",
			n, ps.Installed)
	}

	cs, ok := root.CacheStats()
	if !ok {
		t.Fatal("shared system reports no cache stats")
	}
	if !cs.CompileOnce() {
		t.Errorf("compile-once violated: %+v", cs)
	}

	// A steady-state lap over the promoted code still agrees, and the
	// promotion counters are monotone (nothing un-promotes).
	res, err := root.Call(b.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.I() != b.Expect {
		t.Errorf("steady value = %d, want %d", res.Value.I(), b.Expect)
	}
	root.DrainPromotions()
	if after := root.PromotionStats(); after.Installed < ps.Installed {
		t.Errorf("installed promotions went backwards: %d -> %d", ps.Installed, after.Installed)
	}
}
