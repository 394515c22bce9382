// Command selfbench regenerates the performance tables of Chambers &
// Ungar (PLDI'90) §6 and Appendices A-C on the selfgo reproduction.
//
// Usage:
//
//	selfbench                          # every table
//	selfbench -table speed-summary     # §6.1 speed table
//	selfbench -table compile-summary   # §6.2/§6.3 compile time & code size
//	selfbench -table speed             # Appendix A
//	selfbench -table size              # Appendix B
//	selfbench -table compile           # Appendix C
//	selfbench -table ablation          # per-technique ablation
//	selfbench -table guard             # §6.1 guard records (JSON) for BENCH_*.json
//	selfbench -bench richards          # one benchmark across all systems
//	selfbench -workers 8               # concurrent VMs against one shared code cache
//	selfbench -hostbench               # host wall-clock speed (BENCH_host.json schema)
//	selfbench -tier adaptive -promote 50 -bench richards   # adaptive-mode measurement
//	selfbench -list                    # list benchmarks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"selfgo"
	"selfgo/internal/bench"
	"selfgo/internal/cli"
)

func main() {
	table := flag.String("table", "all", "table to print: all, speed-summary, compile-summary, speed, size, compile, ablation, strategy, guard, json")
	one := flag.String("bench", "", "run a single benchmark across every system")
	list := flag.Bool("list", false, "list benchmarks and exit")
	quiet := flag.Bool("q", false, "suppress progress output")
	workers := flag.Int("workers", 0, "run benchmarks on N concurrent VMs sharing one code cache")
	reps := flag.Int("reps", 4, "with -workers: benchmark runs per worker")
	comp := cli.CompilerFlags(flag.CommandLine)
	assertPromoted := flag.Bool("assert-promoted", false, "with -tier adaptive: exit nonzero unless every measured benchmark installs >= 1 promotion")
	timeout := flag.Duration("timeout", 0, "with -workers: wall-clock limit per benchmark measurement (e.g. 30s)")
	fuel := flag.Int64("fuel", 0, "with -workers: instruction budget per benchmark run")
	hostbench := flag.Bool("hostbench", false, "measure host wall-clock speed per benchmark and print BENCH_host.json to stdout")
	hostbase := flag.String("hostbase", "", "with -hostbench: previous BENCH_host.json to carry as baseline and compute the geomean speedup against")
	allocguard := flag.String("allocguard", "", "with -hostbench: committed BENCH_host.json to guard against — exit nonzero if allocsPerOp or bytesPerOp regress more than 10% on matching records")
	profiles := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiles.Start("selfbench")
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	// loadCfg resolves -config with -strategy applied, and suffixes the
	// name so strategy-distinct runs never collide in caches or output
	// labels.
	loadCfg := func() (selfgo.Config, error) {
		cfg, err := comp.Config()
		if err == nil && cfg.Strategy != selfgo.StrategySplit {
			cfg.Name = fmt.Sprintf("%s (%s)", cfg.Name, cfg.Strategy)
		}
		return cfg, err
	}

	if *list {
		for _, b := range bench.All() {
			safe := ""
			if b.ParallelSafe {
				safe = " parallel-safe"
			}
			fmt.Printf("%-12s [%s]%s\n", b.Name, b.Group, safe)
		}
		return
	}

	if *workers > 0 {
		cfg, err := loadCfg()
		if err != nil {
			fatal(err)
		}
		lim := bench.Limits{Timeout: *timeout, Budget: selfgo.Budget{MaxInstrs: *fuel}}
		if err := runWorkers(cfg, *workers, *reps, *one, lim); err != nil {
			fatal(err)
		}
		return
	}

	mode, err := comp.Mode()
	if err != nil {
		fatal(err)
	}

	if *hostbench {
		cfg, err := loadCfg()
		if err != nil {
			fatal(err)
		}
		if err := runHostBench(cfg, mode, comp.Promote, *one, *hostbase, *allocguard, *quiet); err != nil {
			fatal(err)
		}
		return
	}

	if mode != selfgo.ModeOpt {
		cfg, err := loadCfg()
		if err != nil {
			fatal(err)
		}
		if err := runTiered(cfg, mode, comp.Promote, *one, *assertPromoted, *quiet); err != nil {
			fatal(err)
		}
		return
	}

	r := bench.NewRunner()
	if !*quiet {
		r.Progress = os.Stderr
	}

	if *one != "" {
		b, ok := bench.ByName(*one)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q (try -list)", *one))
		}
		fmt.Printf("%s [%s]\n", b.Name, b.Group)
		fmt.Printf("%-32s %12s %10s %10s %10s %12s %10s\n",
			"system", "cycles", "sends", "tests", "ovfl", "compile", "code kB")
		for _, cfg := range selfgo.Configs() {
			m, err := r.Get(b, cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-32s %12d %10d %10d %10d %12s %9.1f\n",
				cfg.Name, m.Cycles, m.Run.Sends, m.Run.TypeTests, m.Run.OvflChecks,
				m.CompileTime.Round(10*time.Microsecond), float64(m.CodeBytes)/1024)
		}
		return
	}

	emit := func(f func() (*bench.Table, error)) {
		t, err := f()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t.String())
	}
	switch *table {
	case "guard":
		recs, err := r.GuardRecords()
		if err != nil {
			fatal(err)
		}
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case "json":
		data, err := r.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case "all":
		out, err := r.AllTables()
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	case "speed-summary":
		emit(r.SpeedSummaryTable)
	case "compile-summary":
		emit(r.CompileSummaryTable)
	case "speed":
		emit(r.SpeedTable)
	case "size":
		emit(r.CodeSizeTable)
	case "compile":
		emit(r.CompileTimeTable)
	case "ablation":
		emit(r.AblationTable)
	case "strategy":
		emit(r.StrategyTable)
	default:
		fatal(fmt.Errorf("unknown table %q", *table))
	}
}

// runWorkers runs the parallel-safe benchmarks (or the one named by
// filter) on `workers` concurrent VMs sharing a single world and code
// cache, printing throughput and the shared cache's counters. It fails
// if any run computes a wrong value or if any (method, receiver map)
// customization was compiled more than once — the single-flight
// compile-once guarantee, asserted from the cache counters.
func runWorkers(cfg selfgo.Config, workers, reps int, filter string, lim bench.Limits) error {
	benches := bench.ParallelSafe()
	if filter != "" {
		b, ok := bench.ByName(filter)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", filter)
		}
		benches = []bench.Benchmark{b}
	}
	fmt.Printf("concurrent benchmarks: %d workers x %d reps, config %q, shared code cache\n\n", workers, reps, cfg.Name)
	fmt.Printf("%-12s %12s %10s %10s %8s %8s %8s %8s %8s %14s\n",
		"benchmark", "value", "wall ms", "runs/s", "compiled", "hits", "misses", "waits", "evicted", "compile-once")
	bad := false
	for _, b := range benches {
		m, err := bench.RunConcurrentLimits(b, cfg, workers, reps, lim)
		if err != nil {
			return err
		}
		once := "OK"
		if !m.CompileOnce() {
			once = "VIOLATED"
			bad = true
		}
		fmt.Printf("%-12s %12d %10.1f %10.0f %8d %8d %8d %8d %8d %14s\n",
			m.Bench, m.Value, float64(m.Elapsed)/float64(time.Millisecond), m.RunsPerSec(),
			m.Methods, m.Cache.Hits, m.Cache.Misses, m.Cache.Waits, m.Cache.Evicted, once)
	}
	if bad {
		return fmt.Errorf("compile-once violated: some customization was compiled more than once")
	}
	fmt.Printf("\ncompile-once holds: every (method, receiver map) customization was compiled exactly once.\n")
	return nil
}

// runTiered measures every benchmark (or the one named by filter)
// under a non-default tier schedule, printing the cold-vs-steady
// modelled cost and the promotion activity. With assertPromoted, it
// fails unless each measured benchmark installed at least one
// promotion — the CI smoke check for adaptive mode.
func runTiered(cfg selfgo.Config, mode selfgo.TierMode, threshold int64, filter string, assertPromoted, quiet bool) error {
	benches := bench.All()
	if filter != "" {
		b, ok := bench.ByName(filter)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", filter)
		}
		benches = []bench.Benchmark{b}
	}
	if !quiet {
		fmt.Printf("tier schedule %q, config %q, promotion threshold %d\n\n", mode, cfg.Name, threshold)
	}
	fmt.Printf("%-12s %12s %14s %14s %10s %10s %10s %12s\n",
		"benchmark", "value", "cold cycles", "steady cycles", "promoted", "fails", "discards", "mean promote")
	for _, b := range benches {
		m, err := bench.RunTiered(b, cfg, mode, threshold)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %14d %14d %10d %10d %10d %12s\n",
			m.Bench, m.Value, m.FirstRun.Cycles, m.SteadyRun.Cycles,
			m.Promotions.Installed, m.Promotions.Fails, m.Promotions.Discards,
			m.Promotions.MeanLatency.Round(time.Microsecond))
		if assertPromoted && mode == selfgo.ModeAdaptive && m.Promotions.Installed < 1 {
			return fmt.Errorf("%s: adaptive run installed no promotions (RunStats promotions=%d)",
				m.Bench, m.FirstRun.Promotions)
		}
	}
	return nil
}

// runHostBench measures host wall-clock speed (ns/op, guest-instrs/s,
// Go allocs/op) for every benchmark — or just the one named by filter —
// under cfg, and prints a BENCH_host.json document to stdout. With
// basePath, the previous file's records ride along as the baseline and
// the geomean guest-instrs/sec speedup against them is computed. With
// guardPath, the measurements are additionally checked against that
// file's records and the run fails on a >10% allocation regression.
func runHostBench(cfg selfgo.Config, mode selfgo.TierMode, threshold int64, filter, basePath, guardPath string, quiet bool) error {
	benches := bench.All()
	if filter != "" {
		b, ok := bench.ByName(filter)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (try -list)", filter)
		}
		benches = []bench.Benchmark{b}
	}
	var progress func(r *bench.HostRecord)
	if !quiet {
		progress = func(r *bench.HostRecord) {
			fmt.Fprintf(os.Stderr, "%-12s %-12s %12d ns/op %10.2f Mginstrs/s %6d allocs/op\n",
				r.Bench, r.Config, r.NsPerOp, r.GuestMInstrsPerSec, r.AllocsPerOp)
		}
	}
	// The eager records are always measured (they are the pinned
	// comparison point); a non-default tier schedule rides along as a
	// second record set, so the file tracks adaptive vs eager speed on
	// the same build.
	recs, err := bench.HostBench(cfg, benches, progress)
	if err != nil {
		return err
	}
	if mode != selfgo.ModeOpt {
		tiered, err := bench.HostBenchMode(cfg, benches, mode, threshold, progress)
		if err != nil {
			return err
		}
		recs = append(recs, tiered...)
	}
	out := bench.HostFile{
		Note:    "host wall-clock speed; modelled quantities are pinned separately by BENCH_guard.json",
		Records: recs,
	}
	if basePath != "" {
		data, err := os.ReadFile(basePath)
		if err != nil {
			return err
		}
		var prev bench.HostFile
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("%s: %w", basePath, err)
		}
		out.Baseline = prev.Records
		out.GeomeanSpeedup = bench.HostGeomeanSpeedup(prev.Records, recs)
	}
	if guardPath != "" {
		data, err := os.ReadFile(guardPath)
		if err != nil {
			return err
		}
		var pinned bench.HostFile
		if err := json.Unmarshal(data, &pinned); err != nil {
			return fmt.Errorf("%s: %w", guardPath, err)
		}
		if err := bench.HostAllocGuard(pinned.Records, recs); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "selfbench:", err)
	os.Exit(1)
}
