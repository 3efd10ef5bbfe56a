package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method), or 0 for
// no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest percentile of n samples that still has at
// least ten samples beyond it: p = 100*(1 - 10/n), floored to a whole
// percent. It returns 0 when there are fewer than 20 samples, for which
// no tail above the median can be stated.
func tailPercentile(n int) int {
	if n < 20 {
		return 0
	}
	return int(math.Floor(100 * (1 - 10/float64(n))))
}

// timing summarises samples of one timing as the choosing-metrics guide
// asks: the median, the highest percentile with ten samples beyond it,
// and the sample count.
type timing struct {
	Median float64
	TailP  int // 0 when there are too few samples for a tail
	Tail   float64
	N      int
}

func summarize(xs []float64) timing {
	t := timing{Median: median(xs), N: len(xs)}
	if p := tailPercentile(len(xs)); p > 0 {
		t.TailP = p
		t.Tail = quantile(xs, float64(p)/100)
	}
	return t
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
