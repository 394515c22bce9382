// Command perfbench is the repository's benchmark: it drives selfgo
// from outside, through its public functions and its HTTP servers on
// loopback sockets, checks every output against a reference, and
// reports end-to-end metrics (untraced) or per-layer metrics (traced).
//
//	perfbench --workload suite-warm --seed 1 --seconds 30 --trace 0
//	perfbench --workload all --seed 1 --seconds 30 --trace 0
//	perfbench --compare base.out change.out
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The line before it is the full record, stamped with the machine
// fingerprint. The exit code is 1 if any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md says what each means on each
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"run_ms", "ms"},
	{"model_cycles", "cycles"},
	{"first_result_ms", "ms"},
	{"code_kb", "KB"},
	{"max_rps", "1/s"},
	{"read_ms", "ms"},
	{"read_ms_tail", "ms"},
	{"write_ms", "ms"},
	{"write_ms_tail", "ms"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// repository's modules. A layer that does no work on a workload reads
// 0 there. trace_overhead.* (added below) is the traced pass's change
// against the untraced pass, per end-to-end metric.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms"},
	{"lexer.tokens", "count"},
	{"prelude.boot_ms", "ms"},
	{"obj.load_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.frontend_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.compiles", "count"},
	{"core.ir_nodes", "count"},
	{"core.inlined", "count"},
	{"core.loop_iterations", "count"},
	{"core.splits", "count"},
	{"core.removed_tests", "count"},
	{"core.removed_ovfl", "count"},
	{"vm.first_exec_ms", "ms"},
	{"vm.guest_minstrs_per_s", "Minstr/s"},
	{"vm.instrs", "count"},
	{"vm.sends", "count"},
	{"vm.type_tests", "count"},
	{"vm.ic_hit_ratio", "ratio"},
	{"vm.go_allocs_per_run", "count"},
	{"vm.go_bytes_per_run", "bytes"},
	{"obj.gc_cycles", "count"},
	{"obj.gc_pause_ms", "ms"},
	{"obj.arena_abandons", "count"},
	{"codecache.misses", "count"},
	{"codecache.hit_ratio", "ratio"},
	{"codecache.waits", "count"},
	{"codecache.evicted", "count"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"server.read_ms", "ms"},
	{"server.read_ms_tail", "ms"},
	{"server.write_ms", "ms"},
	{"server.write_ms_tail", "ms"},
	{"server.shed_ratio", "ratio"},
	{"server.pool_in_use_peak", "count"},
	{"server.expr_hit_ratio", "ratio"},
	{"server.programs_loaded", "count"},
	{"server.exprs_evicted", "count"},
	{"server.guest_instrs_per_req", "count"},
	{"router.self_ms", "ms"},
	{"router.self_ms_tail", "ms"},
	{"router.failovers", "count"},
	{"loadgen.transport_ms", "ms"},
	{"loadgen.lag_ms_tail", "ms"},
}

func init() {
	for _, m := range endToEnd {
		perLayer = append(perLayer, metricDef{"trace_overhead." + m.Name, "ratio"})
	}
}

// opts is what one pass of a workload is given.
type opts struct {
	seed    uint64
	seconds float64 // length of the timed window
	log     io.Writer
}

// setups is how many times every workload repeats its set-up;
// setup_s is their median.
const setups = 3

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int64
	wrong             []string // outputs that did not match their reference
	e2e               map[string]float64
	layer             map[string]float64
	detail            map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

// bad records a wrong output. Wrong outputs are also failed
// operations, so they count against ok_ratio.
func (o *outcome) bad(format string, args ...any) {
	o.failed++
	if len(o.wrong) < 20 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

// workloads are described, with the reason each exists, in README.md
// and BENCHMARK.json.
type workload struct {
	name string
	run  func(o opts, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"suite-warm", suiteWarm},
	{"suite-cold", suiteCold},
	{"serve-mix", serveMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the line before it: the same metrics with the fingerprint
// and the per-workload detail a reader needs to interpret them.
type record struct {
	Fingerprint fingerprint    `json:"fingerprint"`
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	Result      result         `json:"result"`
	Wrong       []string       `json:"wrong,omitempty"`
	Detail      map[string]any `json:"detail,omitempty"`
	When        string         `json:"when"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced pass (plus an untraced pass for the overhead)")
	compare := fs.Bool("compare", false, "compare two files of saved output lines (arguments: base change)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fp := takeFingerprint(root)
	code := 0
	for _, w := range todo {
		rec, err := measure(w, *seed, *seconds, *trace == 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		rec.Fingerprint = fp
		printReport(stdout, rec)
		if !rec.Result.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measure runs a workload once untraced, or — traced — once untraced
// and once traced, each for half the time, so the per-layer numbers
// come with the overhead the tracing itself added.
func measure(w workload, seed uint64, seconds float64, traced bool, log io.Writer) (*record, error) {
	o := opts{seed: seed, seconds: seconds, log: log}
	var out *outcome
	var err error
	pass := func(tr *tracer) (*outcome, error) {
		steal0, total0 := cpuTicks()
		out, err := w.run(o, tr)
		if err != nil {
			return nil, err
		}
		steal1, total1 := cpuTicks()
		out.detail["cpu_steal_share"] = share(float64(steal1-steal0), float64(total1-total0))
		if out.attempted > 0 {
			out.e2e["ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
		}
		out.e2e["peak_rss_mb"] = peakRSSMB()
		return out, nil
	}
	if !traced {
		if out, err = pass(nil); err != nil {
			return nil, err
		}
	} else {
		o.seconds = seconds / 2
		plain, err := pass(nil)
		if err != nil {
			return nil, err
		}
		if out, err = pass(newTracer()); err != nil {
			return nil, err
		}
		for _, m := range endToEnd {
			out.layer["trace_overhead."+m.Name] = share(out.e2e[m.Name], plain.e2e[m.Name]) - 1
		}
		out.detail["end_to_end_untraced"] = plain.e2e
		out.detail["end_to_end_traced"] = out.e2e
		out.attempted += plain.attempted
		out.failed += plain.failed
		out.wrong = append(plain.wrong, out.wrong...)
	}

	res := result{Correct: len(out.wrong) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return &record{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Result: res,
		Wrong: out.wrong, Detail: out.detail, When: time.Now().UTC().Format(time.RFC3339)}, nil
}

// printReport writes the human-readable table, the record line and,
// last, the result line.
func printReport(w io.Writer, rec *record) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "#   %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, s := range rec.Wrong {
		fmt.Fprintf(w, "# WRONG: %s\n", s)
	}
	b, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Fprintln(w, string(b))
	b, _ = json.Marshal(rec.Result)
	fmt.Fprintln(w, string(b))
}
