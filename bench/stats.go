package main

import (
	"math"
	"slices"
)

// floor returns the minimum of xs: interference from the host only ever
// adds time, so the fastest of many identical repeats is the one least
// touched by it. The per-layer timings use it. NaN when empty.
func floor(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peak returns the maximum of xs. NaN when empty.
func peak(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Max(xs)
}

// meanOf reduces each kind of op (variant) of a workload with stat and
// averages the kinds: with stat = floor it is the gated timing statistic of
// a workload whose ops come in several kinds, and with one kind it is stat
// itself. Kinds without a sample are skipped.
func meanOf(byVariant [][]float64, stat func([]float64) float64) float64 {
	var per []float64
	for _, xs := range byVariant {
		if len(xs) > 0 {
			per = append(per, stat(xs))
		}
	}
	return mean(per)
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the p-th percentile (0..1) of xs by linear
// interpolation between closest ranks. NaN when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), so that the
// spreads selfcheck and compare print are the ones the acceptance driver
// computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func lowerQuartile(xs []float64) float64 { return percentile(xs, 0.25) }

// relSpread is the inter-quartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
