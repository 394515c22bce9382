package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"selfgo"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, pct float64
	}{
		{1000, 950, 95}, // 5% of 1000 samples, 50, outweigh the minimum of 10
		{300, 285, 95},  // 15 samples above
		{100, 90, 90},   // 10 samples above: the tail is p90, not p95
		{11, 1, 100.0 / 11},
		{5, 5, 100}, // too few samples: the maximum
	} {
		got := tail(seq(c.n))
		if got.Value != c.want || !near(got.Pct, c.pct) || got.N != c.n {
			t.Errorf("tail(1..%d) = %+v, want value %v at %.2f%%", c.n, got, c.want, c.pct)
		}
	}
	if got := tail(nil); got.N != 0 || got.Value != 0 {
		t.Errorf("tail(nil) = %+v", got)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); !near(g, 4) {
		t.Errorf("geomean(1,4,16) = %v, want 4", g)
	}
	if g := geomean([]float64{3}); !near(g, 3) {
		t.Errorf("geomean(3) = %v", g)
	}
	// A zero means a failed measurement; it must not average away.
	if g := geomean([]float64{2, 0, 8}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean() = %v", g)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if !near(q1, 1) || !near(q3, 4) {
		t.Errorf("quartiles(1,2,4) = %v, %v", q1, q3)
	}
	if s := spread(seq(10)); !near(s, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v", s)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "router", Start: at(0), End: at(100), Parent: -1},
		{Name: "server", Start: at(10), End: at(40), Parent: 0},
		{Name: "server", Start: at(30), End: at(60), Parent: 0},  // overlaps the first
		{Name: "server", Start: at(90), End: at(120), Parent: 0}, // runs past the parent
		{Name: "server", Start: at(20), End: at(25), Parent: 0},  // inside the first
	}
	// Covered: [10,60] and [90,100] = 60ms, so self time is 40ms.
	if got := selfTime(spans, []int{1, 2, 3, 4}, 0); got != 40*time.Millisecond {
		t.Errorf("self time = %v, want 40ms", got)
	}
	if got := selfTime(spans, nil, 1); got != 30*time.Millisecond {
		t.Errorf("leaf self time = %v, want its duration", got)
	}
}

func TestTracerLinksSpansOfOneRequest(t *testing.T) {
	tr := newTracer()
	a := tr.begin("loadgen", "r1")
	b := tr.begin("router", "r1")
	c := tr.begin("loadgen", "r2")
	tr.end(b)
	d := tr.begin("router", "r1") // a retry: parent is still the client span
	tr.end(d)
	tr.end(a)
	tr.end(c)
	spans, kids := tr.snapshot()
	if spans[b].Parent != a || spans[d].Parent != a || spans[c].Parent != -1 {
		t.Errorf("parents = %d %d %d, want %d %d -1", spans[b].Parent, spans[d].Parent, spans[c].Parent, a, a)
	}
	if len(kids[a]) != 2 {
		t.Errorf("children of the client span = %v", kids[a])
	}
	var off *tracer // untraced: every call is a no-op
	off.end(off.begin("x", "r"))
	off.set(-1, "k", 1)
}

func TestStepRule(t *testing.T) {
	const limit = 200
	for name, s := range map[string]stepStats{
		"a failure":       {ReadTailMS: 10, Failures: 1},
		"abandoned":       {ReadTailMS: 10, Skipped: 3},
		"backlog growing": {ReadTailMS: 10, LagEarlyMS: 1, LagLateMS: 1 + limit + 1},
	} {
		if !overloaded(s, limit) {
			t.Errorf("%s: step not overloaded", name)
		}
	}
	// Lag that is high but steady is not a growing backlog, and a tail
	// over the limit is for maxRate to judge, not an overload.
	if overloaded(stepStats{ReadTailMS: 10, LagEarlyMS: 400, LagLateMS: 400 + limit}, limit) ||
		overloaded(stepStats{ReadTailMS: 900}, limit) {
		t.Errorf("a steady step counted as overloaded")
	}
}

func TestMaxRate(t *testing.T) {
	const limit = 100
	step := func(rate, share float64) stepStats {
		return stepStats{Rate: rate, Reads: 1000, ReadsOver: int(math.Round(share * 1000))}
	}
	// Shares of (rate-100)/2000: 5% at exactly 200/s.
	var steps []stepStats
	for r := 300.0; r >= 100; r -= 50 { // any order
		steps = append(steps, step(r, (r-100)/2000))
	}
	if got := maxRate(steps, limit); !near(got, 200) {
		t.Errorf("maxRate = %v, want 200", got)
	}
	// A step that breaks the order is pooled with its neighbour: 6% and
	// 2% become two steps at 4%, under 5%, so the crossing lies between
	// 200/s and 250/s, not below 150/s.
	pooled := []stepStats{step(100, 0.01), step(150, 0.06), step(200, 0.02), step(250, 0.5)}
	if got, want := maxRate(pooled, limit), 200+50*(0.05-0.04)/(0.5-0.04); !near(got, want) {
		t.Errorf("pooled maxRate = %v, want %v", got, want)
	}
	// An overloaded step caps the answer.
	over := step(160, 0)
	over.Failures = 1
	if got := maxRate(append(steps, over), limit); got != 160 {
		t.Errorf("maxRate with an overloaded step at 160/s = %v", got)
	}
	// A sweep that never reaches 5% answers its top rate; one that
	// starts over it, its lowest.
	if got := maxRate(steps[2:], limit); got != 200 {
		t.Errorf("maxRate over 100-200/s = %v, want the top of the sweep", got)
	}
	if got := maxRate(steps[:2], limit); got != 250 {
		t.Errorf("maxRate over 250-300/s = %v, want the lowest step", got)
	}
}

func testWants() map[string]int64 {
	return map[string]int64{"sumTo": 50005000, "richards": 23220928, "sieve": 1027}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	gen := func(seed uint64) []byte {
		g := newMixGen(seed, testWants(), poolExprs)
		var b bytes.Buffer
		for _, s := range []string{"reference", "step0"} {
			for _, r := range g.schedule(s, 150, 3, mixShares) {
				b.Write(mustJSON(r))
			}
		}
		b.WriteString(strings.Join(shuffle(seed, "lap0", []string{"a", "b", "c", "d", "e"}), ","))
		return b.Bytes()
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Fatal("the same seed gave different schedules")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleHoldsTheMix(t *testing.T) {
	// 360 requests: 216 + 72 + 71.28 + 0.72 rounds to 216, 72, 71, 1.
	want := map[string]int{kindEval: 216, kindRun: 72, kindNewExpr: 71, kindProgram: 1}
	got := map[string]int{}
	for _, k := range mixKinds(360, mixShares) {
		got[k]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("mixKinds(360, mixShares) holds %d %s, want %d", got[k], k, n)
		}
	}
	if n := len(mixKinds(7, mixShares)); n != 7 {
		t.Errorf("mixKinds(7, mixShares) returned %d kinds", n)
	}
	for _, k := range mixKinds(1000, ladderShares) {
		if k == kindProgram {
			t.Fatal("a ladder step loads a program")
		}
	}

	g := newMixGen(3, testWants(), poolExprs)
	sched := g.schedule("reference", 500, 2, mixShares)
	counts := map[string]int{}
	for i, r := range sched {
		counts[r.Kind]++
		if i > 0 && r.Due < sched[i-1].Due {
			t.Fatalf("schedule not in due order at %d", i)
		}
	}
	for _, k := range mixKinds(len(sched), mixShares) {
		counts[k]--
	}
	for k, n := range counts {
		if n != 0 {
			t.Errorf("schedule holds %+d %s against the mix", n, k)
		}
	}
	if len(sched) != 1000 || sched[len(sched)-1].Due >= 2 {
		t.Errorf("%d requests up to %vs, want 1000 within 2s", len(sched), sched[len(sched)-1].Due)
	}
	// Nothing that names the workload reaches the program.
	for _, r := range sched {
		for _, w := range workloads {
			if bytes.Contains(r.Body, []byte(w.name)) {
				t.Fatalf("request body names workload %s: %s", w.name, r.Body)
			}
		}
	}
}

// The generator's closed forms are checked here, once, against the
// system; at run time outputs are checked against the closed forms.
func TestGeneratedValuesAreRight(t *testing.T) {
	sys, err := selfgo.NewSystem(selfgo.NewSELF)
	if err != nil {
		t.Fatal(err)
	}
	r := newRNG(11, "values")
	for i := 0; i < 60; i++ {
		serial := -1 // alternate the pool form and the first-sight form
		if i%2 == 1 {
			serial = i
		}
		e := expr(r, serial)
		res, err := sys.EvalCtx(context.Background(), e.Text)
		if err != nil {
			t.Fatalf("%s: %v", e.Text, err)
		}
		if got := res.Value.I(); got != e.Want {
			t.Errorf("%s = %d, generator says %d", e.Text, got, e.Want)
		}
	}
	for i := 0; i < 10; i++ {
		p := program(r, i)
		if err := sys.LoadSource(p.Source); err != nil {
			t.Fatalf("%s: %v", p.Source, err)
		}
		res, err := sys.Call(p.Entry, selfgo.IntValue(p.Arg))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Value.I(); got != p.Want {
			t.Errorf("%s %d = %d, generator says %d", p.Entry, p.Arg, got, p.Want)
		}
	}
}

func TestRefValuesMatchGuard(t *testing.T) {
	b, err := os.ReadFile("../BENCH_guard.json")
	if err != nil {
		t.Skip("BENCH_guard.json not found:", err)
	}
	var recs []struct {
		Bench string `json:"bench"`
		Value int64  `json:"value"`
	}
	if err := json.Unmarshal(b, &recs); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if want, ok := refValues[r.Bench]; ok {
			seen[r.Bench] = true
			if r.Value != want {
				t.Errorf("%s: BENCH_guard.json pins %d, refValues says %d", r.Bench, r.Value, want)
			}
		}
	}
	for name := range refValues {
		if !seen[name] {
			t.Errorf("%s is not in BENCH_guard.json", name)
		}
	}
	if _, err := suitePrograms(); err != nil {
		t.Error(err)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what       string
		json, code []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s %d: %+v vs %+v", c.what, i, c.json[i], c.code[i])
			}
		}
	}
}

// The serving path end to end, traced, from several sender goroutines:
// every answer checks out and every request's spans nest client >
// router > replica.
func TestServeStackTraced(t *testing.T) {
	tr := newTracer()
	st, err := startStack(tr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	g := newMixGen(5, testWants(), 4)
	out := newOutcome()
	res := st.fire(g.schedule("reference", 200, 0.5, mixShares), "t", tr, 0, out)
	if out.failed != 0 || out.attempted != int64(len(res)) || len(res) == 0 {
		t.Fatalf("attempted %d, failed %d of %d: %v", out.attempted, out.failed, len(res), out.wrong)
	}
	spans, kids := tr.snapshot()
	count := map[string]int{}
	for i, s := range spans {
		count[s.Name]++
		if s.Name == "loadgen" && (len(kids[i]) != 1 || spans[kids[i][0]].Name != "router") {
			t.Fatalf("client span %s has children %v", s.Req, kids[i])
		}
		if s.Name == "router" && (len(kids[i]) != 1 || spans[kids[i][0]].Name != "server") {
			t.Fatalf("router span %s has children %v", s.Req, kids[i])
		}
		if selfTime(spans, kids[i], i) < 0 {
			t.Fatalf("negative self time for %s %s", s.Name, s.Req)
		}
	}
	if count["loadgen"] != len(res) || count["router"] != len(res) || count["server"] != len(res) {
		t.Errorf("spans %v for %d requests", count, len(res))
	}
}
