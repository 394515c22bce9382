package main

import (
	"math"
	"sort"
)

// minBeyond and beyondShare say how many samples must lie above a
// reported tail percentile: at least minBeyond, and at least
// beyondShare of them. A p99 over 200 samples rests on two
// observations; the tail rule instead reports the highest percentile
// that still has that many samples beyond it. Ten are enough evidence
// in a short window. In a long one, the top ten are the few requests
// one burst of host interference hit, and how many it hits changes from
// run to run; the share keeps the tail at p95 there.
const (
	minBeyond   = 10
	beyondShare = 0.05
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailStat is a tail percentile reported with the sample count behind
// it.
type tailStat struct {
	Value float64 // the sample at the percentile
	Pct   float64 // share of samples at or below Value, in percent
	N     int     // samples in the population
}

// tail applies the tail rule: with k = max(minBeyond, ⌈beyondShare·n⌉),
// the sample at index n-1-k of n ascending ones is the highest with k
// samples above it; its percentile is (n-k)/n. With too few samples
// for any sample to qualify, it reports the maximum at 100%.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sorted(xs)
	if n <= minBeyond {
		return tailStat{Value: s[n-1], Pct: 100, N: n}
	}
	k := max(minBeyond, int(math.Ceil(beyondShare*float64(n))))
	return tailStat{Value: s[n-1-k], Pct: 100 * float64(n-k) / float64(n), N: n}
}

// geomean is the geometric mean of positive samples; it returns 0 if
// any sample is not positive (a zero time means the measurement failed,
// and must not silently vanish into the mean).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first and third quartile with the exclusive
// method (Python's statistics.quantiles(xs, n=4) default), so spreads
// computed here match the ones computed by external tooling.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// share returns part/whole, or 0 when whole is 0.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
