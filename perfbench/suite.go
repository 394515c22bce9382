package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/lexer"
	"selfgo/internal/parser"
	"selfgo/internal/wire"
)

// refValues are the check values of the programs whose
// bench.Benchmark carries none. They are the values BENCH_guard.json
// pins under every compiler configuration; a test keeps the two in
// step.
var refValues = map[string]int64{
	"intmm": 14616, "intmm-oo": 14616,
	"quick": 65505, "quick-oo": 65505,
	"bubble": 65801, "bubble-oo": 65801,
}

type suiteProg struct {
	bench.Benchmark
	want int64
}

func suitePrograms() ([]suiteProg, error) {
	var out []suiteProg
	for _, b := range bench.All() {
		want, ok := b.Expect, b.HasExpect
		if !ok {
			want, ok = refValues[b.Name]
		}
		if !ok {
			return nil, fmt.Errorf("benchmark %s has no reference value", b.Name)
		}
		out = append(out, suiteProg{b, want})
	}
	return out, nil
}

func progNames(ps []suiteProg) []string {
	var names []string
	for _, p := range ps {
		names = append(names, p.Name)
	}
	return names
}

func byName(ps []suiteProg) map[string]suiteProg {
	m := map[string]suiteProg{}
	for _, p := range ps {
		m[p.Name] = p
	}
	return m
}

// coldStart runs one program from nothing: a fresh System, its
// source loaded, the entry called once and the value checked. It
// returns the system and first result (nil if the output was wrong)
// and the time from NewSystem to the checked result. Spans: op > prelude.boot, obj.load,
// vm.call; the op span carries the compile-log totals.
func coldStart(p suiteProg, tr *tracer, rid string, out *outcome) (*selfgo.System, *selfgo.Result, time.Duration, error) {
	out.attempted++
	op := tr.begin("op", rid)
	t0 := time.Now()
	sp := tr.begin("prelude.boot", rid)
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	tr.end(sp)
	if err != nil {
		return nil, nil, 0, err
	}
	sp = tr.begin("obj.load", rid)
	err = sys.LoadSource(p.Source)
	tr.end(sp)
	if err != nil {
		tr.end(op)
		out.bad("%s: load: %v", p.Name, err)
		return nil, nil, 0, nil
	}
	sp = tr.begin("vm.call", rid)
	res, err := sys.Call(p.Entry)
	tr.end(sp)
	d := time.Since(t0)
	tr.end(op)
	if err != nil {
		out.bad("%s: first call: %v", p.Name, err)
		return nil, nil, 0, nil
	}
	if got := res.Value.I(); got != p.want {
		out.bad("%s: first call returned %d, want %d", p.Name, got, p.want)
		return nil, nil, 0, nil
	}
	if tr != nil {
		c := compileTotals(sys.CompileLog())
		for k, v := range c {
			tr.set(op, k, v)
		}
	}
	return sys, res, d, nil
}

// compileTotals sums a compile log: times in ms, counts exact.
func compileTotals(log []selfgo.MethodCompile) map[string]float64 {
	m := map[string]float64{}
	for _, e := range log {
		st := e.Stats
		var asm time.Duration
		for _, ps := range st.Passes {
			if ps.Name == "assemble" {
				asm += ps.Duration
			}
		}
		m["compile_ms"] += ms(st.Duration)
		m["assemble_ms"] += ms(asm)
		m["compiles"]++
		m["code_bytes"] += float64(e.Bytes)
		m["ir_nodes"] += float64(st.Nodes)
		m["inlined"] += float64(st.InlinedMethods)
		m["loop_iterations"] += float64(st.LoopIterations)
		m["splits"] += float64(st.Splits)
		m["removed_tests"] += float64(st.RemovedTests)
		m["removed_ovfl"] += float64(st.RemovedOvfl)
	}
	return m
}

func codeBytes(sys *selfgo.System) float64 {
	var n int
	for _, e := range sys.CompileLog() {
		n += e.Bytes
	}
	return float64(n)
}

// warmRun is one timed steady-state call on a compiled system: the
// read operation of both suites. The span carries the run's exact
// counters and, traced, its Go heap traffic.
func warmRun(sys *selfgo.System, p suiteProg, tr *tracer, rid string, out *outcome) (time.Duration, *selfgo.Result) {
	out.attempted++
	var h0 heap
	if tr != nil {
		h0 = readHeap()
	}
	compiled := len(sys.CompileLog())
	sp := tr.begin("vm.run", rid)
	t0 := time.Now()
	res, err := sys.Call(p.Entry)
	d := time.Since(t0)
	tr.end(sp)
	if tr != nil {
		h1 := readHeap()
		log := sys.CompileLog()
		c := compileTotals(log[compiled:])
		tr.set(sp, "go_allocs", float64(h1.allocs-h0.allocs))
		tr.set(sp, "go_bytes", float64(h1.bytes-h0.bytes))
		tr.set(sp, "compiles", c["compiles"])
		tr.set(sp, "compile_ms", c["compile_ms"])
		tr.set(sp, "assemble_ms", c["assemble_ms"])
		if res != nil {
			tr.set(sp, "instrs", float64(res.Run.Instrs))
			tr.set(sp, "sends", float64(res.Run.Sends))
			tr.set(sp, "type_tests", float64(res.Run.TypeTests))
			tr.set(sp, "ic_hits", float64(res.Run.ICHits))
			tr.set(sp, "ic_misses", float64(res.Run.ICMisses))
		}
	}
	sys.ResetArena()
	if err != nil {
		out.bad("%s: run: %v", p.Name, err)
		return 0, nil
	}
	if got := res.Value.I(); got != p.want {
		out.bad("%s: run returned %d, want %d", p.Name, got, p.want)
		return 0, nil
	}
	return d, res
}

// samples collects timings per program.
type samples struct {
	perProg map[string][]float64
}

func newSamples() *samples { return &samples{perProg: map[string][]float64{}} }

func (s *samples) add(prog string, d time.Duration) {
	s.perProg[prog] = append(s.perProg[prog], ms(d))
}

// geoOfMedians is the geometric mean over programs of each program's
// median.
func (s *samples) geoOfMedians() float64 {
	var meds []float64
	for _, xs := range s.perProg {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

func (s *samples) medians() map[string]float64 { return medianMap(s.perProg) }

func medianMap(in map[string][]float64) map[string]float64 {
	m := map[string]float64{}
	for k, xs := range in {
		m[k] = median(xs)
	}
	return m
}

// busyRate is operations per second of time spent in them: the rate
// one closed-loop client sustains.
func (s *samples) busyRate() float64 {
	var n, sum float64
	for _, xs := range s.perProg {
		for _, x := range xs {
			n++
			sum += x
		}
	}
	return share(n, sum/1000)
}

// setClass fills the read_* or write_* metrics from pooled samples.
func setClass(e2e map[string]float64, class string, xs []float64, detail map[string]any) {
	t := tail(xs)
	e2e[class+"_ms"] = median(xs)
	e2e[class+"_ms_tail"] = t.Value
	detail[class+"_ms_tail"] = t
}

// setSuiteClass fills the read_* or write_* metrics of a suite. Its
// operations are 21 different programs, so a pooled percentile would
// pick out whichever program sits at that rank, and jump between
// programs as the lap count changes. Instead every sample is divided
// by its program's median, the percentiles are taken over those
// ratios, and they are scaled by the geometric mean of the program
// medians: the latency of the geometric-mean program.
func setSuiteClass(e2e map[string]float64, class string, s *samples, detail map[string]any) {
	var rel []float64
	for _, xs := range s.perProg {
		m := median(xs)
		for _, x := range xs {
			rel = append(rel, share(x, m))
		}
	}
	g := s.geoOfMedians()
	t := tail(rel)
	e2e[class+"_ms"] = g * median(rel)
	e2e[class+"_ms_tail"] = g * t.Value
	detail[class+"_ms_tail"] = tailStat{Value: g * t.Value, Pct: t.Pct, N: t.N}
}

// suiteWarm: every program is compiled, warmed and checked in set-up;
// the timed window runs laps of all programs in seeded order.
func suiteWarm(o opts, tr *tracer) (*outcome, error) {
	out := newOutcome()
	progs, err := suitePrograms()
	if err != nil {
		return nil, err
	}
	byProg := byName(progs)
	first := newSamples()
	var setupS []float64
	var systems map[string]*selfgo.System
	var code float64
	for rep := 0; rep < setups; rep++ {
		systems = nil
		runtime.GC() // start every set-up from the same heap
		t0 := time.Now()
		systems = map[string]*selfgo.System{}
		code = 0
		for _, name := range shuffle(o.seed, fmt.Sprintf("setup%d", rep), progNames(progs)) {
			p := byProg[name]
			sys, _, d, err := coldStart(p, tr, fmt.Sprintf("setup%d/%s", rep, name), out)
			if err != nil {
				return nil, err
			}
			if sys == nil {
				continue
			}
			first.add(name, d)
			code += codeBytes(sys)
			// One untimed run fills the inline caches before timing.
			if d, _ := warmRun(sys, p, nil, "", out); d > 0 {
				systems[name] = sys
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	fmt.Fprintf(o.log, "suite-warm: set-up %.2fs x%d\n", median(setupS), setups)

	runs := newSamples()
	cycles := map[string][]float64{}
	h0 := readHeap()
	aband0 := abandons(systems)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	lap := 0
	for ; lap == 0 || time.Now().Before(deadline); lap++ {
		runtime.GC() // no lap pays for the previous lap's garbage
		for _, name := range shuffle(o.seed, fmt.Sprintf("lap%d", lap), progNames(progs)) {
			sys := systems[name]
			if sys == nil {
				continue
			}
			p := byProg[name]
			compiled := len(sys.CompileLog())
			d, res := warmRun(sys, p, tr, fmt.Sprintf("lap%d/%s", lap, name), out)
			if res == nil {
				continue
			}
			if n := len(sys.CompileLog()) - compiled; n != 0 {
				out.bad("%s: %d compilations inside the timed window", name, n)
			}
			runs.add(name, d)
			cycles[name] = append(cycles[name], float64(res.Run.Cycles))
		}
	}
	h1 := readHeap()
	fmt.Fprintf(o.log, "suite-warm: %d laps\n", lap)

	e := out.e2e
	e["setup_s"] = median(setupS)
	e["run_ms"] = runs.geoOfMedians()
	e["model_cycles"] = geoOfMedianMap(cycles)
	e["first_result_ms"] = first.geoOfMedians()
	e["code_kb"] = code / 1024
	e["max_rps"] = runs.busyRate()
	setSuiteClass(e, "read", runs, out.detail)
	setSuiteClass(e, "write", first, out.detail)
	out.detail["laps"] = lap
	out.detail["run_ms_by_program"] = runs.medians()
	out.detail["first_result_ms_by_program"] = first.medians()

	if tr != nil {
		l := out.layer
		spans, kids := tr.snapshot()
		for k, v := range attributeColdStarts(spans, kids) {
			l[k] = v
		}
		// Compilation is set-up work here; the window must have none,
		// so the compile times are the window's (zero when it holds).
		a := sumAttrs(spans, "vm.run")
		l["core.compile_ms"], l["core.assemble_ms"] = a["compile_ms"], a["assemble_ms"]
		l["core.frontend_ms"] = a["compile_ms"] - a["assemble_ms"]
		l["codecache.misses"] = a["compiles"]
		for k, v := range compileCounts(systems) {
			l[k] = v
		}
		readLayers(l, spans, lap)
		l["obj.gc_cycles"] = float64(h1.gcs-h0.gcs) - float64(lap) // less the forced one per lap
		l["obj.gc_pause_ms"] = float64(h1.pauseNs-h0.pauseNs) / 1e6
		l["obj.arena_abandons"] = float64(abandons(systems) - aband0)
		sourceLayers(l, progs)
		wireLayers(l, progs, systems)
	}
	return out, nil
}

// suiteCold: each lap starts every program from nothing and checks
// the first result, then times one steady-state run on the fresh code.
func suiteCold(o opts, tr *tracer) (*outcome, error) {
	out := newOutcome()
	progs, err := suitePrograms()
	if err != nil {
		return nil, err
	}
	// Set-up is what a lap needs ready: every program boots and loads
	// (nothing is compiled or kept).
	var setupS []float64
	for rep := 0; rep < setups; rep++ {
		t0 := time.Now()
		for _, p := range progs {
			sys, err := selfgo.NewSystem(selfgo.NewSELF)
			if err != nil {
				return nil, err
			}
			if err := sys.LoadSource(p.Source); err != nil {
				return nil, fmt.Errorf("%s: %v", p.Name, err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	byProg := byName(progs)
	first, runs := newSamples(), newSamples()
	cycles := map[string][]float64{}
	var code float64
	var last map[string]*selfgo.System
	h0 := readHeap()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	lap := 0
	for ; lap == 0 || time.Now().Before(deadline); lap++ {
		last = nil
		runtime.GC() // no lap pays for the previous lap's garbage
		lapCode := 0.0
		systems := map[string]*selfgo.System{}
		for _, name := range shuffle(o.seed, fmt.Sprintf("lap%d", lap), progNames(progs)) {
			p := byProg[name]
			rid := fmt.Sprintf("lap%d/%s", lap, name)
			sys, fres, d, err := coldStart(p, tr, rid, out)
			if err != nil {
				return nil, err
			}
			if sys == nil {
				continue
			}
			first.add(name, d)
			cycles[name] = append(cycles[name], float64(fres.Run.Cycles))
			lapCode += codeBytes(sys)
			rd, wres := warmRun(sys, p, tr, rid, out)
			if wres == nil {
				continue
			}
			runs.add(name, rd)
			systems[name] = sys
		}
		if lap > 0 && lapCode != code {
			out.bad("compiled code differs between laps: %.0f vs %.0f bytes", lapCode, code)
		}
		code, last = lapCode, systems
	}
	h1 := readHeap()
	fmt.Fprintf(o.log, "suite-cold: %d laps\n", lap)

	e := out.e2e
	e["setup_s"] = median(setupS)
	e["run_ms"] = runs.geoOfMedians()
	e["model_cycles"] = geoOfMedianMap(cycles)
	e["first_result_ms"] = first.geoOfMedians()
	e["code_kb"] = code / 1024
	e["max_rps"] = first.busyRate()
	setSuiteClass(e, "read", runs, out.detail)
	setSuiteClass(e, "write", first, out.detail)
	out.detail["laps"] = lap
	out.detail["first_result_ms_by_program"] = first.medians()
	out.detail["run_ms_by_program"] = runs.medians()

	if tr != nil {
		l := out.layer
		spans, kids := tr.snapshot()
		for k, v := range attributeColdStarts(spans, kids) {
			l[k] = v
		}
		for k, v := range compileCounts(last) {
			l[k] = v
		}
		readLayers(l, spans, lap)
		l["codecache.misses"] = l["core.compiles"]
		l["obj.gc_cycles"] = float64(h1.gcs-h0.gcs) - float64(lap) // less the forced one per lap
		l["obj.gc_pause_ms"] = float64(h1.pauseNs-h0.pauseNs) / 1e6
		l["obj.arena_abandons"] = float64(abandons(last))
		sourceLayers(l, progs)
		wireLayers(l, progs, last)
	}
	return out, nil
}

func geoOfMedianMap(m map[string][]float64) float64 {
	var meds []float64
	for _, xs := range m {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

func abandons(systems map[string]*selfgo.System) int64 {
	var n int64
	for _, s := range systems {
		_, a := s.ArenaStats()
		n += a
	}
	return n
}

// compileCounts sums the exact compiler counters over one system per
// program: the compilations one pass of the suite forces.
func compileCounts(systems map[string]*selfgo.System) map[string]float64 {
	l := map[string]float64{}
	for _, s := range systems {
		c := compileTotals(s.CompileLog())
		for _, k := range []string{"compiles", "ir_nodes", "inlined", "loop_iterations", "splits", "removed_tests", "removed_ovfl"} {
			l["core."+k] += c[k]
		}
	}
	return l
}

// sumAttrs totals one attribute family over every span with the name.
func sumAttrs(spans []span, name string) map[string]float64 {
	m := map[string]float64{}
	for _, s := range spans {
		if s.Name == name {
			for k, v := range s.Attrs {
				m[k] += v
			}
		}
	}
	return m
}

// attributeColdStarts splits the geometric-mean first result across
// layers. For each cold start (an op span), every layer's share of the
// op is taken: its boot, load and call child spans, with the call split
// into compile (front end and assemble, from the compile log) and
// first execution (the rest). Shares are averaged per program, then
// over programs, and scaled by the geometric mean of the per-program
// median op durations — so the layers add up to that geomean, less the
// op's own self time.
func attributeColdStarts(spans []span, kids [][]int) map[string]float64 {
	layers := []string{"prelude.boot_ms", "obj.load_ms", "core.frontend_ms", "core.assemble_ms", "vm.first_exec_ms"}
	sharesBy := map[string][][]float64{}
	totals := map[string][]float64{}
	for i, s := range spans {
		if s.Name != "op" {
			continue
		}
		prog := s.Req[strings.Index(s.Req, "/")+1:]
		total := ms(s.dur())
		var boot, load, call float64
		for _, k := range kids[i] {
			switch spans[k].Name {
			case "prelude.boot":
				boot += ms(spans[k].dur())
			case "obj.load":
				load += ms(spans[k].dur())
			case "vm.call":
				call += ms(spans[k].dur())
			}
		}
		comp, asm := s.Attrs["compile_ms"], s.Attrs["assemble_ms"]
		parts := []float64{boot, load, comp - asm, asm, call - comp}
		for j := range parts {
			parts[j] = share(parts[j], total)
		}
		sharesBy[prog] = append(sharesBy[prog], parts)
		totals[prog] = append(totals[prog], total)
	}
	out := map[string]float64{}
	for _, l := range layers {
		out[l] = 0
	}
	if len(totals) == 0 {
		return out
	}
	g := geoOfMedianMap(totals)
	for _, shares := range sharesBy {
		for j, l := range layers {
			var m float64
			for _, s := range shares {
				m += s[j]
			}
			out[l] += g * m / float64(len(shares)) / float64(len(sharesBy))
		}
	}
	out["core.compile_ms"] = out["core.frontend_ms"] + out["core.assemble_ms"]
	return out
}

// readLayers fills the vm.* counters from the window's vm.run spans:
// exact guest counts per lap, host throughput, and Go heap traffic per
// run.
func readLayers(l map[string]float64, spans []span, laps int) {
	var busy float64
	var runs float64
	a := map[string]float64{}
	for _, s := range spans {
		if s.Name != "vm.run" || !strings.HasPrefix(s.Req, "lap") {
			continue
		}
		busy += ms(s.dur())
		runs++
		for k, v := range s.Attrs {
			a[k] += v
		}
	}
	perLap := func(v float64) float64 { return v / float64(max(laps, 1)) }
	l["vm.instrs"] = perLap(a["instrs"])
	l["vm.sends"] = perLap(a["sends"])
	l["vm.type_tests"] = perLap(a["type_tests"])
	l["vm.ic_hit_ratio"] = share(a["ic_hits"], a["ic_hits"]+a["ic_misses"])
	l["vm.guest_minstrs_per_s"] = share(a["instrs"]/1e6, busy/1000)
	l["vm.go_allocs_per_run"] = share(a["go_allocs"], runs)
	l["vm.go_bytes_per_run"] = share(a["go_bytes"], runs)
	// No shared code cache and no serving stack in the suites.
	for _, k := range []string{"codecache.hit_ratio", "codecache.waits", "codecache.evicted",
		"server.read_ms", "server.read_ms_tail", "server.write_ms", "server.write_ms_tail",
		"server.shed_ratio", "server.pool_in_use_peak", "server.expr_hit_ratio",
		"server.programs_loaded", "server.exprs_evicted", "server.guest_instrs_per_req",
		"router.self_ms", "router.self_ms_tail", "router.failovers",
		"loadgen.transport_ms", "loadgen.lag_ms_tail"} {
		l[k] = 0
	}
}

// sourceLayers times the front of the pipeline on the workload's own
// texts: parser.ParseFile over every text, median of five passes, and
// the lexer's token count.
func sourceLayers(l map[string]float64, progs []suiteProg) {
	var texts []string
	for _, p := range progs {
		texts = append(texts, p.Source)
	}
	parseLayers(l, texts)
}

func parseLayers(l map[string]float64, texts []string) {
	var passes []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for _, t := range texts {
			parser.ParseFile(t)
		}
		passes = append(passes, ms(time.Since(t0)))
	}
	var tokens int
	for _, t := range texts {
		tokens += len(lexer.All(t))
	}
	l["parser.parse_ms"] = median(passes)
	l["lexer.tokens"] = float64(tokens)
}

// wireLayers times the serving vocabulary on the suite's own traffic:
// each program as a /run request body, and each program's result as
// the shared Result encoding.
func wireLayers(l map[string]float64, progs []suiteProg, systems map[string]*selfgo.System) {
	var bodies [][]byte
	var results []*wire.Result
	for _, p := range progs {
		bodies = append(bodies, mustJSON(map[string]any{"bench": p.Name}))
		if sys := systems[p.Name]; sys != nil {
			if res, err := sys.Call(p.Entry); err == nil {
				results = append(results, wire.NewResult(res.Value, res.Run, res.Compile, res.CompileTime))
			}
			sys.ResetArena()
		}
	}
	l["wire.decode_us"], l["wire.encode_us"] = wireTimes(bodies, results, "/run")
}

// wireTimes returns the median µs to decode one request body and to
// encode one result, each timed over 20 repetitions.
func wireTimes(bodies [][]byte, results []*wire.Result, endpoint string) (decode, encode float64) {
	const reps = 20
	var dec, enc []float64
	for _, b := range bodies {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			r := bytes.NewReader(b)
			if endpoint == "/run" {
				wire.DecodeRunRequest(r, wire.Limits{})
			} else {
				wire.DecodeEvalRequest(r, wire.Limits{})
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/1e3/reps)
	}
	for _, r := range results {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			r.Encode(io.Discard)
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e3/reps)
	}
	return median(dec), median(enc)
}
