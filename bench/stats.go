package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle two for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of xs, which must be positive; NaN for
// no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// quartiles returns Q1, the median and Q3 of xs with the interpolation of
// Python's statistics.quantiles(xs, n=4) (its default "exclusive" method),
// so spreads computed here match spreads computed from the printed values.
// A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailLadder are the percentiles the tail rule chooses from, highest first.
var tailLadder = []float64{99.9, 99, 97.5, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for a timing's tail: the highest
// percentile of tailLadder that still has at least ten samples beyond it. It
// returns that percentile, its nearest-rank value and the number of samples
// beyond it; ok is false when even the median has fewer than ten beyond.
func tailPercentile(xs []float64) (pct, value float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // nearest rank, 1-based
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return p, s[rank-1], n - rank, true
		}
	}
	return 0, math.NaN(), 0, false
}

// verdict is the outcome of comparing one metric between two sets of runs.
type verdict struct {
	BaseQ1, BaseMedian, BaseQ3 float64
	HeadQ1, HeadMedian, HeadQ3 float64
	// Worse is the head median's change from the base median as a share of
	// the base median, signed so that positive is worse.
	Worse float64
	// Spread is the base runs' interquartile distance as a share of their
	// median.
	Spread float64
	// Wins and Pairs count run pairs (base run i, head run i) in which head
	// is strictly better; ties count for neither side.
	Wins, Pairs int
	// Outcome is "gain", "ok", "regression" or "unresolved".
	Outcome string
}

// compareRuns applies the comparison rule to one metric. A gain needs head
// to win at least nine tenths of the pairs and the medians to differ by more
// than the base runs' interquartile distance. Otherwise the metric is a
// regression when the head median is worse than the base median by more
// than bound; but when the base spread is wider than bound the metric is
// unresolved instead of ok or regression, unless every head run is better
// than every base run.
func compareRuns(base, head []float64, lowerIsBetter bool, bound float64) verdict {
	var v verdict
	v.BaseQ1, v.BaseMedian, v.BaseQ3 = quartiles(base)
	v.HeadQ1, v.HeadMedian, v.HeadQ3 = quartiles(head)
	better := func(h, b float64) bool {
		if lowerIsBetter {
			return h < b
		}
		return h > b
	}
	v.Worse = (v.HeadMedian - v.BaseMedian) / v.BaseMedian
	if !lowerIsBetter {
		v.Worse = -v.Worse
	}
	iqr := v.BaseQ3 - v.BaseQ1
	v.Spread = iqr / v.BaseMedian
	v.Pairs = len(base)
	if len(head) < v.Pairs {
		v.Pairs = len(head)
	}
	for i := 0; i < v.Pairs; i++ {
		if better(head[i], base[i]) {
			v.Wins++
		}
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	switch {
	case v.Pairs > 0 && v.Wins*10 >= 9*v.Pairs && math.Abs(v.HeadMedian-v.BaseMedian) > iqr &&
		better(v.HeadMedian, v.BaseMedian):
		v.Outcome = "gain"
	case v.Spread > bound && !allBetter:
		v.Outcome = "unresolved"
	case v.Worse > bound:
		v.Outcome = "regression"
	default:
		v.Outcome = "ok"
	}
	return v
}
