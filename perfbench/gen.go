package main

import (
	"fmt"
	"math"
	"sort"
)

// rng is splitmix64: a fixed, documented generator, so a seed means
// the same inputs on every Go version (math/rand's streams are not
// promised across releases).
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*31 + uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle returns a seeded permutation of names.
func shuffle(seed uint64, stream string, names []string) []string {
	out := append([]string(nil), names...)
	r := newRNG(seed, stream)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// genExpr is a generated /eval expression with the value it must
// produce, computed here in Go from the template's closed form — never
// by running the compiler under test.
type genExpr struct {
	Text string
	Want int64
}

// exprTemplates build small loop and arithmetic expressions of the
// dialect as (locals, statements, value). Binary operators share one
// precedence and associate left, so every compound operand is
// parenthesized. Constants stay small enough that every value fits
// comfortably in a small integer.
var exprTemplates = []func(r *rng) (locals, body string, want int64){
	func(r *rng) (string, string, int64) { // scaled triangular sum
		n, k := int64(r.between(50, 400)), int64(r.between(2, 40))
		return "s <- 0", fmt.Sprintf("1 to: %d Do: [ :i | s: s + (i * %d) ]. s", n, k), k * n * (n + 1) / 2
	},
	func(r *rng) (string, string, int64) { // range sum
		a := int64(r.between(1, 200))
		b := a + int64(r.between(50, 400))
		return "s <- 0", fmt.Sprintf("%d to: %d Do: [ :i | s: s + i ]. s", a, b), (a + b) * (b - a + 1) / 2
	},
	func(r *rng) (string, string, int64) { // sum of squares
		n := int64(r.between(50, 300))
		return "s <- 0", fmt.Sprintf("1 to: %d Do: [ :i | s: s + (i * i) ]. s", n), n * (n + 1) * (2*n + 1) / 6
	},
	func(r *rng) (string, string, int64) { // nested loops
		n, m := int64(r.between(5, 30)), int64(r.between(5, 30))
		return "s <- 0", fmt.Sprintf("1 to: %d Do: [ :i | 1 to: %d Do: [ :j | s: s + (i * j) ] ]. s", n, m),
			(n * (n + 1) / 2) * (m * (m + 1) / 2)
	},
	func(r *rng) (string, string, int64) { // straight-line arithmetic, left to right
		a, b, c, d := int64(r.between(1, 999)), int64(r.between(1, 999)), int64(r.between(2, 99)), int64(r.between(1, 999))
		return "", fmt.Sprintf("((%d + %d) * %d) - %d", a, b, c, d), (a+b)*c - d
	},
}

// expr draws one expression. A non-negative serial is declared as an
// extra, unused local: it makes the text unique without changing the
// value, which is what makes a write-class expression first-sight.
// First-sight expressions also take their template from the serial, so
// consecutive ones cycle through the templates and every window holds
// them in the same proportion: the templates differ in compile time,
// and a window with more nested loops than another would move its
// write tail. Pool expressions draw their template.
func expr(r *rng, serial int) genExpr {
	t := r.intn(len(exprTemplates))
	if serial >= 0 {
		t = serial % len(exprTemplates)
	}
	locals, body, want := exprTemplates[t](r)
	if serial >= 0 {
		tag := fmt.Sprintf("tag <- %d", serial)
		if locals == "" {
			locals = tag
		} else {
			locals = tag + ". " + locals
		}
	}
	if locals == "" {
		return genExpr{Text: body, Want: want}
	}
	return genExpr{Text: "| " + locals + " | " + body, Want: want}
}

// genProgram is a generated program load: a new lobby method with a
// unique selector, called once with an argument.
type genProgram struct {
	Source string
	Entry  string
	Arg    int64
	Want   int64
}

func program(r *rng, serial int) genProgram {
	k, n := int64(r.between(2, 40)), int64(r.between(50, 400))
	entry := fmt.Sprintf("mixProgram%d:", serial)
	src := fmt.Sprintf("%s n = ( | s <- 0 | 1 to: n Do: [ :i | s: s + (i * %d) ]. s ).", entry, k)
	return genProgram{Source: src, Entry: entry, Arg: n, Want: k * n * (n + 1) / 2}
}

// Request kinds of the serving mix. The first two are the read class
// (code already compiled), the last two the write class (new code).
const (
	kindEval    = "eval"    // repeated expression from the read pool
	kindRun     = "run"     // preloaded benchmark
	kindNewExpr = "newexpr" // first-sight expression
	kindProgram = "program" // program load plus a call into it
)

func isWrite(kind string) bool { return kind == kindNewExpr || kind == kindProgram }

// mixShares is the request mix, in parts per 500 requests: mostly
// cached expressions, some benchmark runs, a trickle of new code. Loads
// are rarest: each one takes the world write lock, flushes every
// interned expression and, by reshaping the lobby, sends every
// benchmark entry back through the compiler. The /run right after a
// load therefore takes 3-10 times its usual time. One load per
// reference window gives four such runs, well under the tail rule's
// count, so the read tail falls among ordinary runs; with three loads
// it fell on the border between the two clusters and jumped between
// them from run to run.
var mixShares = []mixShare{{kindEval, 300}, {kindRun, 100}, {kindNewExpr, 99}, {kindProgram, 1}}

// ladderShares is the mix of the ladder's steps: the same, without
// program loads. A load stops the world for a recompile of every
// benchmark, and in a 2-second step the requests queued behind that
// one stall set the read tail by themselves, whatever the rate. Loads
// are measured in the reference window.
var ladderShares = []mixShare{{kindEval, 300}, {kindRun, 100}, {kindNewExpr, 99}}

type mixShare struct {
	kind  string
	parts int
}

// mixKinds returns n kinds in the given proportions, rounded by largest
// remainder. Every schedule of a given length thus holds the same
// number of each kind; a window with one program load more than
// another would recompile every benchmark once more and move its tail.
func mixKinds(n int, shares []mixShare) []string {
	total := 0
	for _, m := range shares {
		total += m.parts
	}
	counts := make([]int, len(shares))
	left := n
	for i, m := range shares {
		counts[i] = n * m.parts / total
		left -= counts[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i, m := range shares {
			if n*m.parts-counts[i]*total > n*shares[best].parts-counts[best]*total {
				best = i
			}
		}
		counts[best]++
	}
	var kinds []string
	for i, m := range shares {
		for j := 0; j < counts[i]; j++ {
			kinds = append(kinds, m.kind)
		}
	}
	return kinds
}

// request is one scheduled request.
type request struct {
	Due      float64 // seconds after the schedule starts
	Kind     string
	Endpoint string
	Body     []byte
	Want     int64  // expected int value
	Bench    string // kindRun: benchmark name
}

// mixGen holds what is fixed for a whole serving run: the read pool of
// repeated expressions, the benchmarks /run may name, and counters
// that keep every write-class text distinct.
type mixGen struct {
	seed    uint64
	pool    []genExpr
	benches []string
	wants   map[string]int64 // benchmark -> reference value
	serial  int
}

func newMixGen(seed uint64, wants map[string]int64, poolSize int) *mixGen {
	var names []string
	for b := range wants {
		names = append(names, b)
	}
	sort.Strings(names)
	g := &mixGen{seed: seed, benches: shuffle(seed, "benches", names), wants: wants}
	r := newRNG(seed, "pool")
	seen := map[string]bool{}
	for len(g.pool) < poolSize {
		e := expr(r, -1)
		if !seen[e.Text] {
			seen[e.Text] = true
			g.pool = append(g.pool, e)
		}
	}
	return g
}

// schedule generates an open-loop schedule of rate × seconds requests
// with Poisson arrivals — a Poisson process given its count places its
// arrivals as sorted independent uniform draws — and the kinds of
// mixKinds over the given shares in seeded order. Every seed thus offers the same number of
// each kind; only the timing and the interleaving differ. /run
// requests cycle through the benchmarks in seeded order, so each
// window sees each one.
func (g *mixGen) schedule(stream string, rate, seconds float64, shares []mixShare) []request {
	r := newRNG(g.seed, fmt.Sprintf("%s/%.3f/%.3f", stream, rate, seconds))
	due := make([]float64, int(math.Round(rate*seconds)))
	for i := range due {
		due[i] = r.float() * seconds
	}
	sort.Float64s(due)
	kinds := mixKinds(len(due), shares)
	for i := len(kinds) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	out := make([]request, len(due))
	runs := 0
	for i, t := range due {
		req := request{Due: t, Kind: kinds[i]}
		switch req.Kind {
		case kindEval:
			e := g.pool[r.intn(len(g.pool))]
			req.Endpoint, req.Body, req.Want = "/eval", mustJSON(map[string]any{"expr": e.Text}), e.Want
		case kindRun:
			b := g.benches[runs%len(g.benches)]
			runs++
			req.Endpoint, req.Body, req.Want, req.Bench = "/run", mustJSON(map[string]any{"bench": b}), g.wants[b], b
		case kindNewExpr:
			g.serial++
			e := expr(r, g.serial)
			req.Endpoint, req.Body, req.Want = "/eval", mustJSON(map[string]any{"expr": e.Text}), e.Want
		case kindProgram:
			g.serial++
			p := program(r, g.serial)
			req.Endpoint, req.Body, req.Want = "/eval",
				mustJSON(map[string]any{"program": p.Source, "entry": p.Entry, "args": []int64{p.Arg}}), p.Want
		}
		out[i] = req
	}
	return out
}
