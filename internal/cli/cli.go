// Package cli holds the flags and helpers shared by the selfc, selfrun,
// selfbench and selfserved commands.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"selfgo"
)

// ConfigByName resolves a command-line configuration name.
//
//	new        the paper's new SELF compiler (§6's measured system)
//	new-multi  new SELF with multi-version loops repaired (§5.2)
//	new-ext    new-multi plus §7's comparison facts
//	old89      the original compiler, early-1989 tuning
//	old90      the 1990 production system
//	st80       ParcPlace Smalltalk-80 V2.4
//	c          the optimized-C stand-in (static ideal)
func ConfigByName(name string) (selfgo.Config, error) {
	switch strings.ToLower(name) {
	case "new", "newself", "new-self":
		return selfgo.NewSELF, nil
	case "new-multi", "multi":
		return selfgo.NewSELFMultiLoop, nil
	case "new-ext", "ext", "extended":
		return selfgo.NewSELFExtended, nil
	case "old89", "self89":
		return selfgo.OldSELF89, nil
	case "old90", "self90":
		return selfgo.OldSELF90, nil
	case "st80", "smalltalk":
		return selfgo.ST80, nil
	case "c", "static", "ideal":
		return selfgo.OptimizedC, nil
	}
	return selfgo.Config{}, fmt.Errorf("unknown config %q (want new, new-multi, new-ext, old89, old90, st80 or c)", name)
}

// Names lists the accepted primary configuration names.
func Names() []string {
	return []string{"new", "new-multi", "new-ext", "old89", "old90", "st80", "c"}
}

// Compiler holds the compiler-selection flags. selfrun, selfbench and
// selfserved declare all four with CompilerFlags; selfc declares only
// -config with ConfigFlag.
type Compiler struct {
	config, tier, strategy string
	// Promote is the adaptive promotion threshold
	// (invocations+backedges; 0 = default).
	Promote int64
}

// ConfigFlag declares -config on fs.
func ConfigFlag(fs *flag.FlagSet) *Compiler {
	c := &Compiler{}
	fs.StringVar(&c.config, "config", "new", "compiler configuration: "+strings.Join(Names(), ", "))
	return c
}

// CompilerFlags declares -config, -tier, -strategy and -promote on fs.
func CompilerFlags(fs *flag.FlagSet) *Compiler {
	c := ConfigFlag(fs)
	fs.StringVar(&c.tier, "tier", "opt", "tier schedule: "+strings.Join(tierNames(), ", "))
	fs.StringVar(&c.strategy, "strategy", "split", "specialization strategy: "+strings.Join(strategyNames(), ", "))
	fs.Int64Var(&c.Promote, "promote", 0, "adaptive promotion threshold (invocations+backedges; 0 = default)")
	return c
}

// Config resolves -config with -strategy applied.
func (c *Compiler) Config() (selfgo.Config, error) {
	cfg, err := ConfigByName(c.config)
	if err != nil {
		return cfg, err
	}
	cfg.Strategy, err = selfgo.StrategyByName(c.strategy)
	return cfg, err
}

// Mode resolves -tier.
func (c *Compiler) Mode() (selfgo.TierMode, error) {
	return selfgo.TierModeByName(c.tier)
}

// tierNames lists the accepted -tier names.
func tierNames() []string {
	var names []string
	for _, m := range []selfgo.TierMode{selfgo.ModeOpt, selfgo.ModeBaseline, selfgo.ModeAdaptive} {
		names = append(names, m.String())
	}
	return names
}

// strategyNames lists the accepted -strategy names.
func strategyNames() []string {
	var names []string
	for _, s := range []selfgo.Strategy{selfgo.StrategySplit, selfgo.StrategyBBV, selfgo.StrategyBoth} {
		names = append(names, s.String())
	}
	return names
}

// Profiles holds the -cpuprofile and -memprofile flags.
type Profiles struct{ cpu, mem string }

// ProfileFlags declares -cpuprofile and -memprofile on fs.
func ProfileFlags(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling when -cpuprofile is set. The returned stop
// writes the heap profile when -memprofile is set, then stops CPU
// profiling; heap-profile failures are reported on stderr under prog.
func (p *Profiles) Start(prog string) (stop func(), err error) {
	var cpu *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if p.mem != "" {
			if err := writeHeapProfile(p.mem); err != nil {
				fmt.Fprintln(os.Stderr, prog+":", err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, prog+":", err)
			}
		}
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
