// selfload is the load generator and trace tool for selfserved and
// selfrouter. It has two driving modes:
//
//   - Closed loop (default): c workers each keep one request in flight
//     against /eval or /run, then the tool reports throughput, status
//     mix and latency quantiles. -backoff makes workers honor the
//     Retry-After hint on 429 instead of hammering a shedding server.
//
//   - Replay (-replay trace.jsonl): re-issues a recorded trace
//     OPEN-loop — each request fires at its recorded arrival time
//     (deltas divided by -speed), regardless of whether earlier ones
//     have answered — and reports latency quantiles per status. This
//     is the honest way to measure a serving stack: arrival rate stays
//     fixed while latency is the dependent variable.
//
// Either mode can -record the issued stream to a jsonl trace
// (arrival deltas, endpoint, body, tenant, affinity key — see
// internal/wire.TraceRecord). Replaying while recording re-captures a
// byte-identical trace modulo timestamps, which CI uses to pin replay
// determinism.
//
// Beyond benchmarking, it doubles as the CI smoke driver: it can
// assert serving-layer invariants from the server's own /metrics —
// that the shared code cache compiled nothing new under steady load
// (-assert-compile-once), that background tier promotions landed
// (-min-promotions), and that overload was shed, not queued forever
// (-min-429). -scrape NAME
// prints one /metrics value and exits, so shell scripts can read
// per-replica counters without a curl|grep pipeline. -json emits the
// whole run summary as one JSON object on stdout for scripted
// consumers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfgo/internal/wire"
)

func main() {
	var (
		base  = flag.String("url", "http://127.0.0.1:8673", "selfserved or selfrouter base URL")
		conc  = flag.Int("c", 8, "concurrent connections (closed loop: one request in flight each)")
		total = flag.Int("n", 200, "total requests across all connections (closed loop)")

		expr       = flag.String("expr", "", "expression for POST /eval")
		entry      = flag.String("entry", "", "lobby selector for POST /eval")
		args       = flag.String("args", "", "comma-separated integer args for -entry")
		benchName  = flag.String("bench", "", "benchmark name for POST /run")
		deadlineMS = flag.Int64("deadline-ms", 0, "per-request deadline to send (0 = server default)")
		tenant     = flag.String("tenant", "", "X-Tenant header to send (the router's coarse affinity key)")

		record  = flag.String("record", "", "write the issued request stream to this jsonl trace file")
		replay  = flag.String("replay", "", "re-issue this jsonl trace open-loop instead of generating load")
		speed   = flag.Float64("speed", 1.0, "replay time compression: recorded arrival deltas are divided by this")
		backoff = flag.Bool("backoff", false, "closed loop: sleep the Retry-After hint after a 429 before the next request")

		warmup    = flag.Int("warmup", 1, "sequential warm-up requests before the timed run (closed loop)")
		expectInt = flag.Int64("expect-int", 0, "fail unless every 200 response has this int value")
		hasExpect = flag.Bool("check-int", false, "enable -expect-int checking")
		failErr   = flag.Bool("fail-on-error", false, "exit non-zero if any request is not 2xx or 429")

		assertOnce    = flag.Bool("assert-compile-once", false, "fail if codecache misses grow between warm-up and end of run")
		minPromotions = flag.Int64("min-promotions", 0, "wait for at least this many installed promotions in /metrics")
		promotionWait = flag.Duration("promotion-wait", 10*time.Second, "how long to poll /metrics for -min-promotions")
		min429        = flag.Int("min-429", 0, "fail unless at least this many requests were shed with 429")
		assertPool    = flag.Bool("assert-pool-moves", false, "fail unless pool occupancy rose above zero during the run — live selfserved_pool_in_use samples or the server's checkout high-water mark (gauges must track live occupancy, not config)")
		scrape        = flag.String("scrape", "", "print one value scraped from /metrics and exit (bare name or fully-labelled series)")
		jsonOut       = flag.Bool("json", false, "print one JSON summary object on stdout; human output moves to stderr")
		quiet         = flag.Bool("q", false, "print only the summary line")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("selfload: ")

	client := &http.Client{}
	if *scrape != "" {
		v := scrapeCounter(client, *base, *scrape)
		if v < 0 {
			log.Fatalf("could not scrape %q from %s/metrics", *scrape, *base)
		}
		fmt.Println(v)
		return
	}
	if *speed <= 0 {
		log.Fatal("-speed must be positive")
	}

	// Trace recorder: both modes write through the same TraceWriter.
	var tw *wire.TraceWriter
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tw = wire.NewTraceWriter(f)
		defer func() {
			if err := tw.Flush(); err != nil {
				log.Fatalf("flushing trace: %v", err)
			}
		}()
	}

	cl := &collector{codes: map[int]int{}, lats: map[int][]time.Duration{}}

	// Pool-occupancy watcher: sample the live in-use gauge during the
	// run for the report. The assertion itself reads the server's
	// checkout high-water mark afterwards — a cached expression holds
	// a worker for microseconds, so point-sampling the live gauge can
	// legitimately miss every checkout.
	var poolMax atomic.Int64
	poolDone := make(chan struct{})
	if *assertPool {
		go func() {
			c := &http.Client{}
			for {
				select {
				case <-poolDone:
					return
				default:
				}
				if v := scrapeCounter(c, *base, "selfserved_pool_in_use"); v > poolMax.Load() {
					poolMax.Store(v)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	var (
		wall time.Duration
		mode string
	)
	missesBefore := int64(-1)
	if *replay != "" {
		mode = "replay"
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		trace, err := wire.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if len(trace) == 0 {
			log.Fatalf("%s: empty trace", *replay)
		}
		if *assertOnce {
			missesBefore = scrapeCounter(client, *base, "selfgo_codecache_misses_total")
		}
		wall = runReplay(*base, trace, *speed, tw, cl, *hasExpect, *expectInt)
	} else {
		mode = "closed"
		endpoint, body, err := buildBody(*expr, *entry, *args, *benchName, *deadlineMS)
		if err != nil {
			log.Fatal(err)
		}
		url := strings.TrimRight(*base, "/") + endpoint
		for i := 0; i < *warmup; i++ {
			code, res, _, err := post(client, url, body, *tenant)
			if err != nil {
				log.Fatalf("warm-up: %v", err)
			}
			if code != 200 {
				log.Fatalf("warm-up: status %d (%s)", code, errText(res))
			}
		}
		if *assertOnce {
			missesBefore = scrapeCounter(client, *base, "selfgo_codecache_misses_total")
		}
		wall = runClosed(url, endpoint, body, *tenant, *conc, *total, *backoff, tw, cl, *hasExpect, *expectInt)
	}
	close(poolDone)

	done, lats := 0, []time.Duration(nil)
	for _, n := range cl.codes {
		done += n
	}
	for _, l := range cl.lats {
		lats = append(lats, l...)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	// Human-readable report. With -json it moves to stderr so stdout
	// stays a single machine-readable object.
	out := func(format string, a ...any) {
		if *jsonOut {
			log.Printf(format, a...)
		} else {
			fmt.Printf(format+"\n", a...)
		}
	}
	if !*quiet {
		out("target      %s", *base)
		out("requests    %d in %v (%.1f req/s, mode=%s)",
			done, wall.Round(time.Millisecond), float64(done)/wall.Seconds(), mode)
		keys := make([]int, 0, len(cl.codes))
		for k := range cl.codes {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			label := strconv.Itoa(k)
			if k == -1 {
				label = "transport error"
			}
			line := fmt.Sprintf("  status %-16s %d", label, cl.codes[k])
			if l := cl.lats[k]; len(l) > 0 {
				sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
				line += fmt.Sprintf("   p50 %v  p99 %v", quantile(l, 0.50), quantile(l, 0.99))
			}
			out("%s", line)
		}
		if len(lats) > 0 {
			out("latency     p50 %v  p90 %v  p99 %v  max %v",
				quantile(lats, 0.50), quantile(lats, 0.90),
				quantile(lats, 0.99), lats[len(lats)-1])
		}
	}
	if *jsonOut {
		log.Printf("%d requests, %d ok, %d shed, %.1f req/s",
			done, cl.codes[200], cl.codes[429], float64(done)/wall.Seconds())
	} else {
		fmt.Printf("selfload: %d requests, %d ok, %d shed, %.1f req/s\n",
			done, cl.codes[200], cl.codes[429], float64(done)/wall.Seconds())
	}

	fail := false
	if *hasExpect && cl.badInts > 0 {
		log.Printf("FAIL: %d responses had the wrong int value (want %d)", cl.badInts, *expectInt)
		fail = true
	}
	errors := 0
	for code, n := range cl.codes {
		if code != 200 && code != 429 {
			errors += n
		}
	}
	if *failErr && errors > 0 {
		for code, n := range cl.codes {
			if code != 200 && code != 429 {
				log.Printf("FAIL: %d requests answered %d", n, code)
			}
		}
		fail = true
	}
	if *min429 > 0 && cl.codes[429] < *min429 {
		log.Printf("FAIL: %d responses were 429, want >= %d", cl.codes[429], *min429)
		fail = true
	}
	if *assertPool {
		if peak := scrapeCounter(client, *base, "selfserved_pool_in_use_peak"); peak > poolMax.Load() {
			poolMax.Store(peak)
		}
		if poolMax.Load() < 1 {
			log.Print("FAIL: selfserved_pool_in_use_peak never rose above zero under load")
			fail = true
		} else if !*quiet {
			out("pool occupancy moved: peak in-use %d", poolMax.Load())
		}
	}
	if *assertOnce {
		missesAfter := scrapeCounter(client, *base, "selfgo_codecache_misses_total")
		if missesBefore < 0 || missesAfter < 0 {
			log.Print("FAIL: could not scrape selfgo_codecache_misses_total")
			fail = true
		} else if missesAfter != missesBefore {
			log.Printf("FAIL: compile-once violated — codecache misses grew %d -> %d during steady load",
				missesBefore, missesAfter)
			fail = true
		} else if !*quiet {
			out("compile-once held: codecache misses stable at %d", missesAfter)
		}
	}
	if *minPromotions > 0 {
		// Promotions land on background goroutines; give them a moment
		// after the last response instead of sampling a race.
		got := pollCounter(client, *base, "selfgo_promotions_installed_total", *minPromotions, *promotionWait)
		if got < *minPromotions {
			log.Printf("FAIL: %d promotions installed, want >= %d", got, *minPromotions)
			fail = true
		} else if !*quiet {
			out("promotions installed: %d", got)
		}
	}

	if *jsonOut {
		s := summary{
			Target:      *base,
			Mode:        mode,
			Requests:    done,
			OK:          cl.codes[200],
			Shed:        cl.codes[429],
			Errors:      errors,
			WallSeconds: round3(wall.Seconds()),
			RPS:         round3(float64(done) / wall.Seconds()),
			Status:      map[string]int{},
			ByStatusUS:  map[string]quantilesUS{},
			Recorded:    *record,
			Failed:      fail,
		}
		if mode == "replay" {
			s.Speed = *speed
		} else {
			s.Concurrency = *conc
		}
		for code, n := range cl.codes {
			label := strconv.Itoa(code)
			if code == -1 {
				label = "transport_error"
			}
			s.Status[label] = n
			if l := cl.lats[code]; len(l) > 0 {
				sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
				s.ByStatusUS[label] = newQuantilesUS(l)
			}
		}
		if len(lats) > 0 {
			q := newQuantilesUS(lats)
			s.LatencyUS = &q
		}
		if *assertPool {
			s.PoolPeak = poolMax.Load()
		}
		b, err := json.Marshal(&s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(b))
	}
	if fail {
		os.Exit(1)
	}
}

// collector accumulates per-status outcomes from either driving mode.
type collector struct {
	mu      sync.Mutex
	codes   map[int]int
	lats    map[int][]time.Duration // status -> latencies (-1 = transport error)
	badInts int
}

func (cl *collector) add(code int, lat time.Duration, res *wire.Result, err error,
	hasExpect bool, expectInt int64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if err != nil {
		cl.codes[-1]++
		return
	}
	cl.codes[code]++
	cl.lats[code] = append(cl.lats[code], lat)
	if code == 200 && hasExpect && (res == nil || res.Int != expectInt) {
		cl.badInts++
	}
}

// runClosed drives the classic closed loop: conc workers, one request
// in flight each, total requests overall. With backoff, a worker that
// is shed sleeps the server's Retry-After hint before its next issue —
// the cooperative client the load-aware hint is calibrated for.
func runClosed(url, endpoint, body, tenant string, conc, total int, backoff bool,
	tw *wire.TraceWriter, cl *collector, hasExpect bool, expectInt int64) time.Duration {
	var issued atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{}
			for issued.Add(1) <= int64(total) {
				if tw != nil {
					if err := tw.Record(endpoint, body, tenant); err != nil {
						log.Fatalf("recording trace: %v", err)
					}
				}
				t0 := time.Now()
				code, res, retryAfter, err := post(c, url, body, tenant)
				cl.add(code, time.Since(t0), res, err, hasExpect, expectInt)
				if backoff && err == nil && code == http.StatusTooManyRequests {
					time.Sleep(time.Duration(retryAfter) * time.Second)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// runReplay re-issues a trace open-loop: one scheduler goroutine walks
// the records in order, sleeps each arrival delta (divided by speed),
// and fires the request on its own goroutine without waiting for the
// previous answer. Because scheduling — and re-recording — happen
// sequentially in trace order, replaying a trace while recording
// produces a byte-identical trace modulo the dt_us timestamps.
func runReplay(base string, trace []wire.TraceRecord, speed float64,
	tw *wire.TraceWriter, cl *collector, hasExpect bool, expectInt int64) time.Duration {
	base = strings.TrimRight(base, "/")
	c := &http.Client{}
	var wg sync.WaitGroup
	start := time.Now()
	due := time.Duration(0)
	for _, rec := range trace {
		due += time.Duration(float64(rec.DeltaUS)/speed) * time.Microsecond
		if sleep := due - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		if tw != nil {
			if err := tw.Record(rec.Endpoint, rec.Body, rec.Tenant); err != nil {
				log.Fatalf("recording trace: %v", err)
			}
		}
		wg.Add(1)
		go func(rec wire.TraceRecord) {
			defer wg.Done()
			t0 := time.Now()
			code, res, _, err := post(c, base+rec.Endpoint, rec.Body, rec.Tenant)
			cl.add(code, time.Since(t0), res, err, hasExpect, expectInt)
		}(rec)
	}
	wg.Wait()
	return time.Since(start)
}

// summary is the -json output object, stable vocabulary for scripts
// (BENCH_serve.json embeds these verbatim).
type summary struct {
	Target      string                 `json:"target"`
	Mode        string                 `json:"mode"`
	Concurrency int                    `json:"concurrency,omitempty"`
	Speed       float64                `json:"speed,omitempty"`
	Requests    int                    `json:"requests"`
	OK          int                    `json:"ok"`
	Shed        int                    `json:"shed"`
	Errors      int                    `json:"errors"`
	WallSeconds float64                `json:"wall_seconds"`
	RPS         float64                `json:"rps"`
	Status      map[string]int         `json:"status"`
	LatencyUS   *quantilesUS           `json:"latency_us,omitempty"`
	ByStatusUS  map[string]quantilesUS `json:"latency_by_status_us,omitempty"`
	PoolPeak    int64                  `json:"pool_peak_in_use,omitempty"`
	Recorded    string                 `json:"recorded,omitempty"`
	Failed      bool                   `json:"failed,omitempty"`
}

type quantilesUS struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

func newQuantilesUS(sorted []time.Duration) quantilesUS {
	return quantilesUS{
		P50: quantile(sorted, 0.50).Microseconds(),
		P90: quantile(sorted, 0.90).Microseconds(),
		P99: quantile(sorted, 0.99).Microseconds(),
		Max: sorted[len(sorted)-1].Microseconds(),
	}
}

func round3(f float64) float64 { return float64(int64(f*1000+0.5)) / 1000 }

// buildBody assembles the request body from the flag combination.
func buildBody(expr, entry, args, benchName string, deadlineMS int64) (endpoint, body string, err error) {
	set := 0
	for _, s := range []string{expr, entry, benchName} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return "", "", fmt.Errorf("exactly one of -expr, -entry or -bench is required (or -replay a trace)")
	}
	if benchName != "" {
		req := wire.RunRequest{Bench: benchName, DeadlineMS: deadlineMS}
		b, err := json.Marshal(req)
		return "/run", string(b), err
	}
	req := wire.EvalRequest{Expr: expr, Entry: entry, DeadlineMS: deadlineMS}
	if args != "" {
		for _, a := range strings.Split(args, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
			if err != nil {
				return "", "", fmt.Errorf("bad -args: %v", err)
			}
			req.Args = append(req.Args, n)
		}
	}
	b, err := json.Marshal(req)
	return "/eval", string(b), err
}

// post issues one request. retryAfter is the parsed Retry-After header
// in seconds (1 if absent or unparsable — always safe to sleep on).
func post(c *http.Client, url, body, tenant string) (code int, res *wire.Result, retryAfter int, err error) {
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		return 0, nil, 1, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 1, err
	}
	defer resp.Body.Close()
	retryAfter = 1
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		retryAfter = s
	}
	var r wire.Result
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return resp.StatusCode, nil, retryAfter, nil // non-JSON body (e.g. plain 404): status still counts
	}
	return resp.StatusCode, &r, retryAfter, nil
}

func errText(res *wire.Result) string {
	if res == nil || res.Error == nil {
		return "no error body"
	}
	return res.Error.Kind + ": " + res.Error.Message
}

// scrapeCounter fetches one counter from /metrics — name may be a bare
// metric or a fully-labelled series like `x_total{tier="optimizing"}`; -1
// means the scrape or the metric was missing.
func scrapeCounter(c *http.Client, base, name string) int64 {
	resp, err := c.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name)), 64)
		if err != nil {
			return -1
		}
		return int64(v)
	}
	return -1
}

// pollCounter scrapes until the counter reaches want or the wait runs
// out, returning the last value seen.
func pollCounter(c *http.Client, base, name string, want int64, wait time.Duration) int64 {
	deadline := time.Now().Add(wait)
	for {
		got := scrapeCounter(c, base, name)
		if got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// quantile reads the q-th quantile from sorted latencies.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(time.Microsecond)
}
