package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/router"
	"selfgo/internal/server"
	"selfgo/internal/wire"
)

// Serving knobs. The reference rate sits well under capacity, so its
// latencies are service times rather than queueing; the ladder then
// finds the capacity itself. The read limit is about four /run service
// times. The connections' capacity estimate comes from the reference
// window, where queueing is rare; reads start to queue between 0.9 and
// 1.2 times it, and the ladder sweeps around that.
const (
	refRate       = 30.0  // requests per second of the reference window
	refShare      = 0.6   // share of the timed window spent at the reference rate
	readLimitMS   = 100.0 // read-class latency limit of the ladder
	overShare     = 0.05  // share of reads over the limit at max_rps: the p95 meets it
	ladderLo      = 0.8   // lowest ladder rate, as a share of the connections' capacity estimate
	ladderHi      = 1.4   // highest ladder rate, likewise
	ladderStepSec = 2.0   // length of one ladder step
	poolExprs     = 16    // repeated expressions in the read pool
	ballastMB     = 64    // pointer-free heap serve-mix keeps alive; see serveMix
)

// runBenches are the parallel-safe benchmarks the mix sends to /run:
// the four whose steady-state runs take 10-25 ms. The five tiny ones
// (under 5 ms) cost no more than a repeated expression; towers-oo and
// richards (50-100 ms) would, with a handful of samples each per
// window, set the read tail alone and make it jump between the two
// from run to run. The suites measure all of them.
var runBenches = map[string]bool{"perm-oo": true, "queens-oo": true, "quick-oo": true, "bubble-oo": true}

// stack is one replica behind one router, both serving real loopback
// sockets, plus the load generator's client.
type stack struct {
	srv       *server.Server
	rt        *router.Router
	https     []*http.Server
	routerURL string
	replica   string
	client    *http.Client
	conns     int
}

// traced wraps a handler in a span named after the layer, keyed by the
// request id the load generator set (health probes carry none and are
// not traced).
func traced(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(wire.RequestIDHeader)
		if rid == "" {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin(name, rid)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// startStack boots a replica with the default configuration (pool =
// nproc) and a router in front of it, and waits until the router
// reports ready.
func startStack(tr *tracer) (*stack, error) {
	n := runtime.NumCPU()
	st := &stack{conns: n}
	var err error
	if st.srv, err = server.New(server.Config{Pool: n}); err != nil {
		return nil, err
	}
	hs, url, err := listen(traced(tr, "server", st.srv.Handler()))
	if err != nil {
		return nil, err
	}
	st.https, st.replica = append(st.https, hs), url
	if st.rt, err = router.New(router.Config{Replicas: []string{url}}); err != nil {
		st.close()
		return nil, err
	}
	if hs, url, err = listen(traced(tr, "router", st.rt.Handler())); err != nil {
		st.close()
		return nil, err
	}
	st.https, st.routerURL = append(st.https, hs), url
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := st.client.Get(st.routerURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return st, nil
			}
		}
		if time.Now().After(deadline) {
			st.close()
			return nil, fmt.Errorf("router never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// close stops the servers, the router's health loop and every idle
// connection, and waits for them.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.https) - 1; i >= 0; i-- {
		st.https[i].Shutdown(ctx)
	}
	if st.rt != nil {
		st.rt.Close()
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	http.DefaultClient.CloseIdleConnections()
}

// sent is one request as the load generator saw it.
type sent struct {
	req     *request
	rid     string
	lag     float64 // ms from due to sent
	latency float64 // ms from due to answered
	skipped bool    // never sent: the step was abandoned as overloaded
	ok      bool
	res     wire.Result
	body    []byte
}

// fire sends a schedule open-loop over the stack's connections: conns
// senders take requests in due order, wait for each one's due time,
// and send it. A request is timed from when it was due, so a stall
// charges every request queued behind it. With abortLagMS > 0, once a
// request goes out that late the rest of the schedule is skipped.
func (st *stack) fire(sched []request, prefix string, tr *tracer, abortLagMS float64, out *outcome) []sent {
	res := make([]sent, len(sched))
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for c := 0; c < st.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				r := &res[i]
				r.req, r.rid = &sched[i], fmt.Sprintf("%s%06d", prefix, i)
				due := start.Add(time.Duration(sched[i].Due * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if aborted.Load() {
					r.skipped = true
					continue
				}
				sentAt := time.Now()
				r.lag = ms(sentAt.Sub(due))
				if abortLagMS > 0 && r.lag > abortLagMS {
					aborted.Store(true)
				}
				st.send(r, tr)
				r.latency = ms(time.Since(due))
			}
		}()
	}
	wg.Wait()
	for i := range res {
		if res[i].skipped {
			continue
		}
		out.attempted++
		if !res[i].ok {
			out.failed++
			if len(out.wrong) < 20 && res[i].body != nil && !isOverload(res[i].body) {
				out.wrong = append(out.wrong, fmt.Sprintf("%s %s: %.200s", res[i].req.Endpoint, res[i].req.Body, res[i].body))
			}
		}
	}
	return res
}

// isOverload tells a shed or timed-out answer (a failure, but not a
// wrong output) from a wrong one.
func isOverload(body []byte) bool {
	var r wire.Result
	return json.Unmarshal(body, &r) == nil && r.Error != nil &&
		(r.Error.Kind == "overload" || r.Error.Kind == "cancelled" || r.Error.Kind == "draining")
}

// send makes one request and checks the answer against the value the
// generator computed.
func (st *stack) send(r *sent, tr *tracer) {
	sp := tr.begin("loadgen", r.rid)
	defer tr.end(sp)
	hreq, err := http.NewRequest("POST", st.routerURL+r.req.Endpoint, bytes.NewReader(r.req.Body))
	if err != nil {
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(wire.RequestIDHeader, r.rid)
	resp, err := st.client.Do(hreq)
	if err != nil {
		r.body = []byte(err.Error())
		return
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(r.body, &r.res) != nil {
		return
	}
	r.ok = r.res.Error == nil && r.res.Int == r.req.Want
}

// stepStats summarizes one ladder step.
type stepStats struct {
	Rate       float64
	Reads      int     // read-class requests answered
	ReadsOver  int     // of them, slower than the read limit
	ReadTailMS float64 // read-class tail latency (tail rule), for the record
	Failures   int     // failed, shed or wrong answers
	Skipped    int     // requests never sent because the step was abandoned
	LagEarlyMS float64 // median send lag over the first half of the step
	LagLateMS  float64 // median send lag over the second half
}

// overloaded tells a step past capacity: something failed, or the
// backlog grew — the senders fell further behind the schedule in the
// second half of the step than in the first, by more than the limit.
// Medians, because one long request delays the few queued behind it
// without any backlog building up.
func overloaded(s stepStats, limitMS float64) bool {
	return s.Failures > 0 || s.Skipped > 0 || s.LagLateMS-s.LagEarlyMS > limitMS
}

// maxRate is the ladder's answer: the offered rate at which the read
// class's p95 reaches the limit — the share of reads slower than the
// limit reaches overShare — below any overloaded step. A request is
// timed from when it was due, so a growing backlog shows in that share
// too. Near capacity one 2-second step's tail moves by half between
// steps at the same rate, so no single step decides: the shares are
// made non-decreasing in the rate by pooling each run of steps that
// breaks the order into one (pool-adjacent-violators, weighted by
// reads), and the answer is where the pooled shares cross overShare,
// interpolated between the two steps around the crossing. A sweep that
// never gets there answers its top rate; one that starts past it
// answers its lowest.
func maxRate(steps []stepStats, limitMS float64) float64 {
	if len(steps) == 0 {
		return 0
	}
	steps = append([]stepStats(nil), steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].Rate < steps[j].Rate })
	capRate := steps[len(steps)-1].Rate
	type block struct{ over, reads, n int }
	share := func(b block) float64 { return float64(b.over) / float64(b.reads) }
	var blocks []block
	for _, s := range steps {
		if overloaded(s, limitMS) {
			capRate = math.Min(capRate, s.Rate)
		}
		b := block{s.ReadsOver, s.Reads, 1}
		if b.reads == 0 { // nothing answered: all over the limit
			b.over, b.reads = 1, 1
		}
		blocks = append(blocks, b)
		for k := len(blocks) - 1; k > 0 && share(blocks[k-1]) > share(blocks[k]); k-- {
			a, b := blocks[k-1], blocks[k]
			blocks = append(blocks[:k-1], block{a.over + b.over, a.reads + b.reads, a.n + b.n})
		}
	}
	var fit []float64
	for _, b := range blocks {
		for range b.n {
			fit = append(fit, share(b))
		}
	}
	r := steps[len(steps)-1].Rate
	for i := range steps {
		if fit[i] <= overShare {
			continue
		}
		if i == 0 {
			r = steps[0].Rate
		} else {
			lo, hi := steps[i-1].Rate, steps[i].Rate
			r = lo + (hi-lo)*(overShare-fit[i-1])/(fit[i]-fit[i-1])
		}
		break
	}
	return math.Min(r, capRate)
}

func summarize(rate float64, res []sent, limitMS float64) stepStats {
	s := stepStats{Rate: rate}
	var reads, lags []float64
	for _, r := range res {
		if r.skipped {
			s.Skipped++
			continue
		}
		if !r.ok {
			s.Failures++
		}
		if !isWrite(r.req.Kind) {
			reads = append(reads, r.latency)
			if r.latency > limitMS {
				s.ReadsOver++
			}
		}
		lags = append(lags, r.lag)
	}
	s.Reads = len(reads)
	s.ReadTailMS = tail(reads).Value
	if h := len(lags) / 2; h > 0 {
		s.LagEarlyMS, s.LagLateMS = median(lags[:h]), median(lags[h:])
	}
	return s
}

// ladder sweeps the offered rate over evenly spaced shares of the
// capacity estimate, one step each, lowest first, and returns maxRate
// over the steps.
func (st *stack) ladder(g *mixGen, estimate, budget float64, tr *tracer, out *outcome) (float64, []stepStats) {
	n := int(math.Max(2, math.Floor(budget/ladderStepSec)))
	stepSec := budget / float64(n)
	var steps []stepStats
	for k := 0; k < n; k++ {
		rate := estimate * (ladderLo + (ladderHi-ladderLo)*float64(k)/float64(n-1))
		runtime.GC()
		res := st.fire(g.schedule(fmt.Sprintf("step%d", k), rate, stepSec, ladderShares), fmt.Sprintf("s%02d-", k), tr, 4*readLimitMS, out)
		steps = append(steps, summarize(rate, res, readLimitMS))
	}
	return maxRate(steps, readLimitMS), steps
}

// warmUp sends every read-pool expression and every benchmark twice,
// in order, so both workers have compiled code and filled caches.
func (st *stack) warmUp(g *mixGen, out *outcome) {
	var sched []request
	for round := 0; round < 2; round++ {
		for _, e := range g.pool {
			sched = append(sched, request{Kind: kindEval, Endpoint: "/eval", Body: mustJSON(map[string]any{"expr": e.Text}), Want: e.Want})
		}
		for _, b := range g.benches {
			sched = append(sched, request{Kind: kindRun, Endpoint: "/run", Body: mustJSON(map[string]any{"bench": b}), Want: g.wants[b], Bench: b})
		}
	}
	for i := range sched {
		r := sent{req: &sched[i], rid: fmt.Sprintf("w%06d", i)}
		out.attempted++
		st.send(&r, nil)
		if !r.ok {
			out.bad("warm-up %s %s: %.200s", r.req.Endpoint, r.req.Body, r.body)
		}
	}
}

// scrape reads a /metrics page and sums every sample by metric name.
func (st *stack) scrape(base string) map[string]float64 {
	m := map[string]float64{}
	resp, err := st.client.Get(base + "/metrics")
	if err != nil {
		return m
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[name] += v
		}
	}
	return m
}

// serveMix: set-up boots the stack and warms it; the timed window
// runs a reference-rate schedule (the latency metrics) and then the
// rate ladder (max_rps). A replay of the reference schedule's distinct
// requests on a private system afterwards gives the code size and the
// compiler counters.
//
// The replica shares this process with the router and the load
// generator, and its live heap is a few MB. With nothing else live, the
// collector runs every few ms of a /run, and each cycle's
// stop-the-world phases wait for both CPUs, so time the hypervisor
// takes from either one stalls the request: on a 2-vCPU VM, 11% steal
// made run_ms 1.7 times as long. The collector also paced itself on the
// load generator's own bookkeeping, which differs from run to run. A
// pointer-free ballast, kept alive for the whole workload, sets a fixed
// floor under the heap the collector paces on. The collector never
// scans it, but it adds its size to peak_rss_mb in every run. The
// allocation still shows: in vm.go_bytes_per_run and obj.gc_cycles
// here, and without a ballast in suite-warm.
func serveMix(o opts, tr *tracer) (*outcome, error) {
	ballast := make([]byte, ballastMB<<20)
	defer runtime.KeepAlive(ballast)
	out := newOutcome()
	progs, err := suitePrograms()
	if err != nil {
		return nil, err
	}
	byProg := byName(progs)
	wants := map[string]int64{}
	var safe []suiteProg // what the replica preloads
	for _, b := range bench.ParallelSafe() {
		p := byProg[b.Name]
		safe = append(safe, p)
		if runBenches[b.Name] {
			wants[b.Name] = p.want
		}
	}
	g := newMixGen(o.seed, wants, poolExprs)

	var setupS []float64
	var st *stack
	for rep := 0; rep < setups; rep++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if st, err = startStack(tr); err != nil {
			return nil, err
		}
		st.warmUp(g, out)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.close()

	refSec := o.seconds * refShare
	ref := g.schedule("reference", refRate, refSec, mixShares)
	runtime.GC() // the window does not pay for set-up's garbage
	srv0, rt0 := st.scrape(st.replica), st.scrape(st.routerURL)
	h0 := readHeap()
	refRes := st.fire(ref, "ref", tr, 0, out)
	h1 := readHeap()
	srv1, rt1 := st.scrape(st.replica), st.scrape(st.routerURL)

	// Each request holds one of the connections from send to answer, so
	// the connections saturate at conns / mean hold time: the estimate
	// the ladder starts from.
	var hold []float64
	for _, r := range refRes {
		hold = append(hold, r.latency-r.lag)
	}
	estimate := share(float64(st.conns)*1000, mean(hold))
	maxRPS, steps := st.ladder(g, estimate, o.seconds-refSec, tr, out)
	out.detail["capacity_estimate"] = estimate

	e := out.e2e
	e["setup_s"] = median(setupS)
	e["max_rps"] = maxRPS
	var reads, writes, firsts []float64
	runLat, runCycles, byKind := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, r := range refRes {
		if !r.ok {
			continue
		}
		byKind[r.req.Kind] = append(byKind[r.req.Kind], r.latency)
		switch r.req.Kind {
		case kindRun:
			runLat[r.req.Bench] = append(runLat[r.req.Bench], r.latency)
			if r.res.Run != nil {
				runCycles[r.req.Bench] = append(runCycles[r.req.Bench], float64(r.res.Run.Cycles))
			}
		case kindNewExpr:
			firsts = append(firsts, r.latency)
		}
		if isWrite(r.req.Kind) {
			writes = append(writes, r.latency)
		} else {
			reads = append(reads, r.latency)
		}
	}
	e["run_ms"] = geoOfMedianMap(runLat)
	e["model_cycles"] = geoOfMedianMap(runCycles)
	e["first_result_ms"] = median(firsts)
	setClass(e, "read", reads, out.detail)
	setClass(e, "write", writes, out.detail)
	out.detail["run_ms_by_bench"] = medianMap(runLat)
	kinds := map[string]tailStat{}
	for k, xs := range byKind {
		kinds[k+"_median"] = tailStat{Value: median(xs), Pct: 50, N: len(xs)}
		kinds[k+"_tail"] = tail(xs)
	}
	out.detail["latency_ms_by_kind"] = kinds
	out.detail["ladder"] = steps
	out.detail["reference_requests"] = len(ref)

	rp, err := replay(ref, safe, tr, out)
	if err != nil {
		return nil, err
	}
	e["code_kb"] = rp.codeKB

	if tr != nil {
		l := out.layer
		for k, v := range rp.layers {
			l[k] = v
		}
		spans, kids := tr.snapshot()
		serveLayers(l, spans, kids, refRes)
		d := func(m0, m1 map[string]float64, k string) float64 { return m1[k] - m0[k] }
		reqs := d(srv0, srv1, "selfserved_requests_total")
		hits, misses, waits := d(srv0, srv1, "selfgo_codecache_hits_total"), d(srv0, srv1, "selfgo_codecache_misses_total"), d(srv0, srv1, "selfgo_codecache_waits_total")
		l["codecache.misses"] = misses
		l["codecache.waits"] = waits
		l["codecache.evicted"] = d(srv0, srv1, "selfgo_codecache_evicted_total")
		l["codecache.hit_ratio"] = share(hits, hits+misses+waits)
		l["server.shed_ratio"] = share(d(srv0, srv1, "selfserved_shed_total"), reqs)
		l["server.pool_in_use_peak"] = srv1["selfserved_pool_in_use_peak"]
		eh, ei := d(srv0, srv1, "selfserved_expr_hits_total"), d(srv0, srv1, "selfserved_exprs_interned_total")
		l["server.expr_hit_ratio"] = share(eh, eh+ei)
		l["server.programs_loaded"] = d(srv0, srv1, "selfserved_programs_loaded_total")
		l["server.exprs_evicted"] = d(srv0, srv1, "selfserved_exprs_evicted_total")
		l["server.guest_instrs_per_req"] = share(d(srv0, srv1, "selfgo_guest_instrs_total"), reqs)
		l["router.failovers"] = d(rt0, rt1, "selfrouter_failovers_total")
		l["vm.go_allocs_per_run"] = share(float64(h1.allocs-h0.allocs), float64(len(refRes)))
		l["vm.go_bytes_per_run"] = share(float64(h1.bytes-h0.bytes), float64(len(refRes)))
		l["obj.gc_cycles"] = float64(h1.gcs - h0.gcs)
		l["obj.gc_pause_ms"] = float64(h1.pauseNs-h0.pauseNs) / 1e6
		l["obj.arena_abandons"] = 0 // the replica's worker arenas are not reachable from outside
	}
	return out, nil
}

// serveLayers attributes the reference window's request time to the
// load generator, the router and the replica from their spans, and
// derives the guest counters from the answers.
func serveLayers(l map[string]float64, spans []span, kids [][]int, res []sent) {
	kind := map[string]string{}
	for _, r := range res {
		kind[r.rid] = r.req.Kind
	}
	var srvRead, srvWrite, routerSelf, transport, busy []float64
	for i, s := range spans {
		k, ok := kind[s.Req]
		if !ok {
			continue
		}
		switch s.Name {
		case "server":
			busy = append(busy, ms(s.dur()))
			if isWrite(k) {
				srvWrite = append(srvWrite, ms(s.dur()))
			} else {
				srvRead = append(srvRead, ms(s.dur()))
			}
		case "router":
			routerSelf = append(routerSelf, ms(selfTime(spans, kids[i], i)))
		case "loadgen":
			transport = append(transport, ms(selfTime(spans, kids[i], i)))
		}
	}
	l["server.read_ms"], l["server.read_ms_tail"] = median(srvRead), tail(srvRead).Value
	l["server.write_ms"], l["server.write_ms_tail"] = median(srvWrite), tail(srvWrite).Value
	l["router.self_ms"], l["router.self_ms_tail"] = median(routerSelf), tail(routerSelf).Value
	l["loadgen.transport_ms"] = median(transport)

	var lags []float64
	var instrs, sends, tests, hits, misses float64
	var reqBodies [][]byte
	var results []*wire.Result
	for _, r := range res {
		lags = append(lags, r.lag)
		if len(reqBodies) < 200 && r.req.Endpoint == "/eval" {
			reqBodies = append(reqBodies, r.req.Body)
		}
		if !r.ok || r.res.Run == nil {
			continue
		}
		if len(results) < 200 {
			rr := r.res
			results = append(results, &rr)
		}
		instrs += float64(r.res.Run.Instrs)
		sends += float64(r.res.Run.Sends)
		tests += float64(r.res.Run.TypeTests)
		hits += float64(r.res.Run.ICHits)
		misses += float64(r.res.Run.ICMisses)
	}
	l["loadgen.lag_ms_tail"] = tail(lags).Value
	n := float64(len(res))
	l["vm.instrs"], l["vm.sends"], l["vm.type_tests"] = share(instrs, n), share(sends, n), share(tests, n)
	l["vm.ic_hit_ratio"] = share(hits, hits+misses)
	var busySum float64
	for _, b := range busy {
		busySum += b
	}
	l["vm.guest_minstrs_per_s"] = share(instrs/1e6, busySum/1000)
	l["wire.decode_us"], l["wire.encode_us"] = wireTimes(reqBodies, results, "/eval")
}

// replayResult is what the private replay measured.
type replayResult struct {
	codeKB float64
	layers map[string]float64
}

// replay runs the reference schedule's distinct requests once, in
// order, on a private shared-cache system like the replica's: the
// preloaded benchmarks, then each first-seen expression, program and
// benchmark run, each checked against its reference. Its compile log
// gives the code the mix forces and the compiler's counters; its spans
// give boot, load and first-execution times on the workload's texts.
func replay(sched []request, safe []suiteProg, tr *tracer, out *outcome) (*replayResult, error) {
	rp := &replayResult{layers: map[string]float64{}}
	sp := tr.begin("prelude.boot", "replay")
	t0 := time.Now()
	sys, err := selfgo.NewSharedSystem(selfgo.NewSELF)
	boot := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var load, exec time.Duration
	var texts []string
	loadSrc := func(src string) error {
		texts = append(texts, src)
		sp := tr.begin("obj.load", "replay")
		t0 := time.Now()
		err := sys.LoadSource(src)
		load += time.Since(t0)
		tr.end(sp)
		return err
	}
	entries := map[string]suiteProg{}
	for _, p := range safe {
		if err := loadSrc(p.Source); err != nil {
			return nil, err
		}
		entries[p.Name] = p
	}
	seen := map[string]bool{}
	for _, r := range sched {
		if seen[string(r.Body)] {
			continue
		}
		seen[string(r.Body)] = true
		var body struct {
			Expr, Program, Entry string
			Args                 []int64
		}
		json.Unmarshal(r.Body, &body)
		out.attempted++
		compiled := compileTotals(sys.CompileLog())["compile_ms"]
		sp := tr.begin("vm.call", "replay")
		t0 := time.Now()
		var res *selfgo.Result
		switch r.Kind {
		case kindRun:
			res, err = sys.Call(entries[r.Bench].Entry)
		case kindProgram:
			if err = loadSrc(body.Program); err == nil {
				t0 = time.Now()
				res, err = sys.Call(body.Entry, selfgo.IntValue(body.Args[0]))
			}
		default:
			var p *selfgo.EvalProgram
			if p, err = sys.ParseEval(body.Expr); err == nil {
				res, err = sys.EvalProgramCtx(context.Background(), p)
			}
		}
		exec += time.Since(t0)
		tr.end(sp)
		exec -= time.Duration((compileTotals(sys.CompileLog())["compile_ms"] - compiled) * float64(time.Millisecond))
		want := r.Want
		if r.Kind == kindRun {
			want = entries[r.Bench].want
		}
		switch {
		case err != nil:
			out.bad("replay %s: %v", r.Body, err)
		case res.Value.I() != want:
			out.bad("replay %s: got %d, want %d", r.Body, res.Value.I(), want)
		}
		sys.ResetArena()
	}
	c := compileTotals(sys.CompileLog())
	rp.codeKB = c["code_bytes"] / 1024
	l := rp.layers
	l["prelude.boot_ms"] = ms(boot)
	l["obj.load_ms"] = ms(load)
	l["vm.first_exec_ms"] = ms(exec)
	l["core.compile_ms"] = c["compile_ms"]
	l["core.assemble_ms"] = c["assemble_ms"]
	l["core.frontend_ms"] = c["compile_ms"] - c["assemble_ms"]
	for _, k := range []string{"compiles", "ir_nodes", "inlined", "loop_iterations", "splits", "removed_tests", "removed_ovfl"} {
		l["core."+k] = c[k]
	}
	parseLayers(l, texts)
	return rp, nil
}
