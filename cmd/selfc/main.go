// Command selfc compiles selfgo source and shows what the compiler
// did: the optimized control flow graph (the artifact drawn in the
// paper's figures), the assembled bytecode, and the per-method
// statistics (splits, loop iterations, removed checks).
//
// Usage:
//
//	selfc [-config new|new-multi|new-ext|old89|old90|st80|c] [-types] [-dump cfg|dot|code|stats] file.self selector...
//	selfc -e 'triangleNumber: n = ( ... ).' triangleNumber:
//
// With no selectors, every method defined at the top level of the file
// is compiled.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"selfgo"
	"selfgo/internal/ast"
	"selfgo/internal/cli"
	"selfgo/internal/parser"
)

func main() {
	comp := cli.ConfigFlag(flag.CommandLine)
	dump := flag.String("dump", "cfg", "comma-separated: cfg, dot, code, stats")
	expr := flag.String("e", "", "inline source instead of a file")
	annotate := flag.Bool("types", false, "annotate the CFG with incoming operand types")
	flag.Parse()

	cfg, err := comp.Config()
	if err != nil {
		fatal(err)
	}
	cfg.AnnotateTypes = *annotate

	src := *expr
	args := flag.Args()
	if src == "" {
		if len(args) == 0 {
			fatal(fmt.Errorf("usage: selfc [flags] file.self [selector...] (or -e 'source')"))
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			fatal(err)
		}
		src = string(data)
		args = args[1:]
	}

	sys, err := selfgo.NewSystem(cfg)
	if err != nil {
		fatal(err)
	}
	if err := sys.LoadSource(src); err != nil {
		fatal(err)
	}

	selectors := args
	if len(selectors) == 0 {
		selectors = topLevelMethods(src)
	}
	wantCfg := strings.Contains(*dump, "cfg")
	wantDot := strings.Contains(*dump, "dot")
	wantCode := strings.Contains(*dump, "code")
	wantStats := strings.Contains(*dump, "stats")

	for _, sel := range selectors {
		fmt.Printf("=== %s (%s) ===\n", sel, cfg.Name)
		g, st, err := sys.GraphFor(sel)
		if err != nil {
			fatal(err)
		}
		if wantCfg {
			fmt.Print(g.Dump())
		}
		if wantDot {
			fmt.Print(g.DOT())
		}
		if wantCode {
			code, err := sys.CodeFor(sel)
			if err != nil {
				fatal(err)
			}
			fmt.Print(code.Disasm())
		}
		if wantStats {
			gs := g.ComputeStats()
			fmt.Printf("compile: %v\n", st.Duration)
			fmt.Printf("nodes=%d sends=%d calls=%d typeTests=%d ovflChecks=%d boundsChecks=%d loopVersions=%d\n",
				gs.Nodes, gs.Sends, gs.Calls, gs.TypeTests, gs.OverflowChecks, gs.BoundsChecks, gs.LoopVersions)
			fmt.Printf("inlined=%d foldedPrims=%d removedTests=%d removedOvfl=%d splits=%d forcedMerges=%d loopIterations=%d\n",
				st.InlinedMethods, st.FoldedPrims, st.RemovedTests, st.RemovedOvfl, st.Splits, st.ForcedMerges, st.LoopIterations)
		}
		fmt.Println()
	}
}

// topLevelMethods lists the method slots defined by the user's source
// (not the prelude's).
func topLevelMethods(src string) []string {
	f, err := parser.ParseFile(src)
	if err != nil {
		fatal(err)
	}
	var out []string
	for _, s := range f.Slots {
		if s.Kind == ast.MethodSlot {
			out = append(out, s.Name)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "selfc:", err)
	os.Exit(1)
}
