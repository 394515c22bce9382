package cli

import (
	"flag"
	"strings"
	"testing"

	"selfgo"
)

func TestConfigByName(t *testing.T) {
	for _, name := range Names() {
		cfg, err := ConfigByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if cfg.Name == "" {
			t.Errorf("%s: empty config", name)
		}
	}
	// Aliases and case-insensitivity.
	for alias, want := range map[string]string{
		"NEW":      "new SELF",
		"static":   "optimized C",
		"Multi":    "new SELF (multi-version loops)",
		"extended": "new SELF (extended)",
	} {
		cfg, err := ConfigByName(alias)
		if err != nil {
			t.Errorf("%s: %v", alias, err)
			continue
		}
		if cfg.Name != want {
			t.Errorf("%s resolved to %q, want %q", alias, cfg.Name, want)
		}
	}
	if _, err := ConfigByName("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

func parse(t *testing.T, args ...string) *Compiler {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := CompilerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompilerFlagsDefaults(t *testing.T) {
	c := parse(t)
	cfg, err := c.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg != selfgo.NewSELF {
		t.Errorf("default config = %q, want the new SELF preset unchanged", cfg.Name)
	}
	mode, err := c.Mode()
	if err != nil || mode != selfgo.ModeOpt {
		t.Errorf("default tier = %v, %v; want opt", mode, err)
	}
	if c.Promote != 0 {
		t.Errorf("default promote = %d, want 0", c.Promote)
	}
}

func TestCompilerFlagsTier(t *testing.T) {
	for _, name := range tierNames() {
		mode, err := parse(t, "-tier", name).Mode()
		if err != nil {
			t.Errorf("-tier %s: %v", name, err)
			continue
		}
		if mode.String() != name {
			t.Errorf("-tier %s resolved to %v", name, mode)
		}
	}
	c := parse(t, "-tier", "adaptive", "-promote", "50")
	if mode, _ := c.Mode(); mode != selfgo.ModeAdaptive || c.Promote != 50 {
		t.Errorf("-tier adaptive -promote 50 resolved to %v, %d", mode, c.Promote)
	}
	_, err := parse(t, "-tier", "native").Mode()
	if err == nil || !strings.Contains(err.Error(), "opt, baseline, adaptive") {
		t.Errorf("-tier native: err = %v, want one listing opt, baseline, adaptive", err)
	}
}

func TestCompilerFlagsStrategy(t *testing.T) {
	for _, name := range strategyNames() {
		cfg, err := parse(t, "-config", "old90", "-strategy", name).Config()
		if err != nil {
			t.Errorf("-strategy %s: %v", name, err)
			continue
		}
		if cfg.Strategy.String() != name {
			t.Errorf("-strategy %s resolved to %v", name, cfg.Strategy)
		}
		// The strategy rides on the named preset; nothing else changes.
		want := selfgo.OldSELF90
		want.Strategy = cfg.Strategy
		if cfg != want {
			t.Errorf("-strategy %s changed more than Strategy: %+v", name, cfg)
		}
	}
	if _, err := parse(t, "-strategy", "nope").Config(); err == nil {
		t.Error("expected error for unknown strategy")
	}
	if _, err := parse(t, "-config", "nope").Config(); err == nil {
		t.Error("expected error for unknown config")
	}
}

func TestConfigFlagOnly(t *testing.T) {
	fs := flag.NewFlagSet("selfc", flag.ContinueOnError)
	c := ConfigFlag(fs)
	if fs.Lookup("tier") != nil || fs.Lookup("strategy") != nil || fs.Lookup("promote") != nil {
		t.Error("ConfigFlag declared more than -config")
	}
	if err := fs.Parse([]string{"-config", "st80"}); err != nil {
		t.Fatal(err)
	}
	if cfg, err := c.Config(); err != nil || cfg != selfgo.ST80 {
		t.Errorf("-config st80 resolved to %q, %v", cfg.Name, err)
	}
}
