package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// nearest rank: the smallest element with at least q of the samples at or
// below it. Empty input yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// sortedCopy returns xs ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for an
// even count, so two windows report their midpoint rather than the lower one).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// summary is one metric over the windows of a run. Q1 and Q3 are the
// quartiles by linear interpolation between closest ranks: of five windows,
// the second and the fourth, so one window caught in a bad moment of the host
// moves Min or Max but not the quartiles.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

func summarize(xs []float64, unit string) summary {
	s := sortedCopy(xs)
	out := summary{Unit: unit, N: len(s), Median: median(s)}
	if len(s) > 0 {
		out.Min, out.Max = s[0], s[len(s)-1]
		out.Q1, out.Q3 = quartile(s, 0.25), quartile(s, 0.75)
	}
	return out
}

// quartile interpolates linearly at position q*(n-1) of an ascending slice.
func quartile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// durationsUS converts nanosecond samples to ascending microseconds.
func durationsUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}
