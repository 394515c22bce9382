// Command selfrun loads selfgo source files and runs a method on the
// lobby, reporting the result and the dynamic cost statistics.
//
// Usage:
//
//	selfrun [-config new] [-args 1,2,3] [-stats] file.self... selector
//	selfrun -workers 8 file.self... selector   # N concurrent VMs, shared code cache
//	selfrun -tier adaptive -promote 100 -stats file.self... selector
//	selfrun -e '| s <- 0 | 1 to: 10 Do: [ :i | s: s + i ]. s'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"selfgo"
	"selfgo/internal/cli"
	"selfgo/internal/wire"
)

func main() {
	comp := cli.CompilerFlags(flag.CommandLine)
	expr := flag.String("e", "", "evaluate an expression sequence instead of calling a selector")
	argList := flag.String("args", "", "comma-separated integer arguments for the selector")
	stats := flag.Bool("stats", false, "print run statistics")
	jsonOut := flag.Bool("json", false, "print the result as JSON (the same encoding selfserved responses use)")
	workers := flag.Int("workers", 0, "run the selector on N concurrent VMs sharing one code cache")
	timeout := flag.Duration("timeout", 0, "abort the run after this wall-clock duration (e.g. 5s)")
	fuel := flag.Int64("fuel", 0, "abort the run after this many interpreted instructions")
	profiles := cli.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := profiles.Start("selfrun")
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	cfg, err := comp.Config()
	if err != nil {
		fatal(err)
	}
	mode, err := comp.Mode()
	if err != nil {
		fatal(err)
	}
	var sys *selfgo.System
	if *workers > 0 {
		if *expr != "" {
			fatal(fmt.Errorf("-workers runs a selector; it cannot be combined with -e"))
		}
		sys, err = selfgo.NewTieredSystem(cfg, mode, comp.Promote)
	} else if mode != selfgo.ModeOpt {
		sys, err = selfgo.NewTieredSystem(cfg, mode, comp.Promote)
	} else {
		sys, err = selfgo.NewSystem(cfg)
	}
	if err != nil {
		fatal(err)
	}

	files := flag.Args()
	var sel string
	if *expr == "" {
		if len(files) < 2 {
			fatal(fmt.Errorf("usage: selfrun [flags] file.self... selector (or -e 'code')"))
		}
		sel, files = files[len(files)-1], files[:len(files)-1]
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		if err := sys.LoadSource(string(data)); err != nil {
			fatal(fmt.Errorf("%s: %w", f, err))
		}
	}

	var args []selfgo.Value
	if *argList != "" {
		for _, a := range strings.Split(*argList, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad argument %q: %w", a, err))
			}
			args = append(args, selfgo.IntValue(n))
		}
	}

	if *fuel > 0 {
		sys.SetBudget(selfgo.Budget{MaxInstrs: *fuel})
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *workers > 0 {
		if *jsonOut {
			fatal(fmt.Errorf("-json reports a single run; it cannot be combined with -workers"))
		}
		if err := runWorkers(ctx, sys, *workers, sel, args, *stats); err != nil {
			fatal(err)
		}
		return
	}

	var res *selfgo.Result
	if *expr != "" {
		res, err = sys.EvalCtx(ctx, *expr)
	} else {
		res, err = sys.CallCtx(ctx, sel, args...)
	}
	if err != nil {
		if *jsonOut {
			out := &wire.Result{Error: wire.NewError(err)}
			_ = out.Encode(os.Stdout)
			os.Exit(1)
		}
		fatal(err)
	}

	if *jsonOut {
		out := wire.NewResult(res.Value, res.Run, res.Compile, res.CompileTime)
		out.TierMode = sys.Mode.String()
		if sys.Mode == selfgo.ModeAdaptive {
			sys.DrainPromotions()
			ps := sys.PromotionStats()
			out.Tiers = sys.TierCounts()
			out.Promotions = &wire.PromotionsJSON{
				Installed: ps.Installed, Fails: ps.Fails, Discards: ps.Discards,
				MeanLatencyMS: float64(ps.MeanLatency) / float64(time.Millisecond),
			}
		}
		if err := out.Encode(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println(res.Value)
	if *stats {
		fmt.Printf("cycles=%d instrs=%d sends=%d (ic hits=%d misses=%d) calls=%d\n",
			res.Run.Cycles, res.Run.Instrs, res.Run.Sends, res.Run.ICHits, res.Run.ICMisses, res.Run.Calls)
		fmt.Printf("typeTests=%d ovflChecks=%d boundsChecks=%d blockValues=%d allocs=%d maxDepth=%d\n",
			res.Run.TypeTests, res.Run.OvflChecks, res.Run.BoundsChecks, res.Run.BlockValues, res.Run.Allocs, res.Run.MaxDepth)
		if res.Run.BBVVersions > 0 || res.Run.BBVCapHits > 0 {
			fmt.Printf("bbv: versions=%d capHits=%d elided(ctx)=%d elided(shape)=%d versionBytes=%d\n",
				res.Run.BBVVersions, res.Run.BBVCapHits, res.Run.BBVElidedCtx, res.Run.BBVElidedShape, res.Run.BBVVersionBytes)
		}
		fmt.Printf("compiled %d methods, %d code bytes, in %v",
			res.Compile.Methods, res.Compile.CodeBytes, res.CompileTime.Round(time.Microsecond))
		if res.Compile.Degraded > 0 {
			fmt.Printf(" (%d degraded)", res.Compile.Degraded)
		}
		fmt.Println()
		if sys.Mode == selfgo.ModeAdaptive {
			sys.DrainPromotions()
			ps := sys.PromotionStats()
			tiers := sys.TierCounts()
			fmt.Printf("adaptive: harvests=%d promotions=%d installed=%d fails=%d discards=%d meanLatency=%v compiles=[baseline %d, optimizing %d, degraded %d]\n",
				res.Run.Harvests, res.Run.Promotions, ps.Installed, ps.Fails, ps.Discards,
				ps.MeanLatency.Round(time.Microsecond),
				tiers["baseline"], tiers["optimizing"], tiers["degraded"])
		}
	}
}

// runWorkers calls sel on n concurrent VMs that share root's world and
// code cache, checks that every worker computes the same value, and
// prints it once along with the shared cache's counters. The caller's
// source files must not mutate lobby-level state when run.
func runWorkers(ctx context.Context, root *selfgo.System, n int, sel string, args []selfgo.Value, stats bool) error {
	systems := make([]*selfgo.System, n)
	systems[0] = root
	for i := 1; i < n; i++ {
		var err error
		if systems[i], err = root.Fork(); err != nil {
			return err
		}
	}
	results := make([]*selfgo.Result, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = systems[i].CallCtx(ctx, sel, args...)
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if results[i].Value.I() != results[0].Value.I() {
			return fmt.Errorf("worker %d computed %v but worker 0 computed %v",
				i, results[i].Value, results[0].Value)
		}
	}
	fmt.Println(results[0].Value)
	if stats {
		st, _ := root.CacheStats()
		fmt.Printf("%d workers in %v; shared cache: %d compiled, %d hits, %d waits, %d evicted, compile-once=%v\n",
			n, elapsed.Round(time.Microsecond), st.Misses, st.Hits, st.Waits, st.Evicted, st.CompileOnce())
		if root.Mode == selfgo.ModeAdaptive {
			root.DrainPromotions()
			ps := root.PromotionStats()
			fmt.Printf("adaptive: promotions installed=%d fails=%d discards=%d meanLatency=%v\n",
				ps.Installed, ps.Fails, ps.Discards, ps.MeanLatency.Round(time.Microsecond))
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "selfrun:", err)
	os.Exit(1)
}
