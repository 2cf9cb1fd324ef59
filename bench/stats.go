package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice,
// interpolating linearly between the two nearest ranks. An empty slice
// has no quantiles and yields 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windowed summarises one metric's per-window values the way every
// timing in this benchmark is reported: the median of the windows,
// with the quartiles alongside so a reader can see the spread.
func windowed(unit string, windows []float64, samples int) metric {
	asc := sorted(windows)
	return metric{
		Value:   percentile(asc, 0.5),
		Unit:    unit,
		Q1:      percentile(asc, 0.25),
		Q3:      percentile(asc, 0.75),
		Windows: windows,
		N:       samples,
	}
}
