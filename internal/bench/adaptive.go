// Tiered-mode benchmark rail: measuring what adaptive compilation
// actually does on a benchmark — how the first (cold, baseline-tier)
// run compares with the steady state after hot methods were promoted,
// and how much compilation each tier performed.
package bench

import (
	"fmt"

	"selfgo"
)

// TieredMeasurement is one benchmark run under a tier schedule.
type TieredMeasurement struct {
	Bench string
	Mode  selfgo.TierMode
	Value int64

	// FirstRun is the cold run: compiles at the first tier, accrues
	// hotness, and (in adaptive mode) fires the promotion requests.
	FirstRun selfgo.RunStats
	// SteadyRun is a run after DrainPromotions: in adaptive mode it
	// executes the promoted code.
	SteadyRun selfgo.RunStats

	Promotions selfgo.PromotionStats
	// TierCounts is the number of compilations per tier label.
	TierCounts map[string]int
	Cache      selfgo.CacheStats
}

// RunTiered measures b under cfg with the given tier schedule: one cold
// run, a drain of background promotions, then one steady-state run.
// Both runs are checked against the benchmark's expected value.
func RunTiered(b Benchmark, cfg selfgo.Config, mode selfgo.TierMode, threshold int64) (*TieredMeasurement, error) {
	sys, err := selfgo.NewTieredSystem(cfg, mode, threshold)
	if err != nil {
		return nil, err
	}
	if err := sys.LoadSource(b.Source); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	first, err := sys.Call(b.Entry)
	if err != nil {
		return nil, fmt.Errorf("%s under %s/%s: %w", b.Name, cfg.Name, mode, err)
	}
	// Drain and re-run twice: methods whose counts cross the threshold
	// only during the first steady lap promote on it, so the last lap is
	// the steady state on fully promoted code.
	var steady *selfgo.Result
	for i := 0; i < 2; i++ {
		sys.DrainPromotions()
		if steady, err = sys.Call(b.Entry); err != nil {
			return nil, fmt.Errorf("%s under %s/%s (steady): %w", b.Name, cfg.Name, mode, err)
		}
	}
	sys.DrainPromotions()
	for _, v := range []selfgo.Value{first.Value, steady.Value} {
		if b.HasExpect && v.I() != b.Expect {
			return nil, fmt.Errorf("%s under %s/%s: got %d, want %d", b.Name, cfg.Name, mode, v.I(), b.Expect)
		}
	}
	if first.Value.I() != steady.Value.I() {
		return nil, fmt.Errorf("%s under %s/%s: value changed across promotion: %d -> %d",
			b.Name, cfg.Name, mode, first.Value.I(), steady.Value.I())
	}
	cache, _ := sys.CacheStats()
	return &TieredMeasurement{
		Bench:      b.Name,
		Mode:       mode,
		Value:      steady.Value.I(),
		FirstRun:   first.Run,
		SteadyRun:  steady.Run,
		Promotions: sys.PromotionStats(),
		TierCounts: sys.TierCounts(),
		Cache:      cache,
	}, nil
}
