package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (mean of the middle two for an even
// count) without disturbing vals; 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), which
// is the rule the driver applies to run-to-run spread. Fewer than two
// values have no spread: both quartiles are the value itself.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(k int) float64 {
		j := k * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(k*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// window is one repetition inside a run: a one-second slice of a closed
// loop, one Scenario.Run, or a group of kernel chunks. A run reports the
// median over its windows, so one stalled second does not set the result.
type window struct {
	ops   int64   // correct completed operations
	dur   float64 // seconds
	p50us float64 // median per-operation latency inside the window
}

// windowRange returns the slowest and fastest window's throughput.
func windowRange(ws []window) (lo, hi float64) {
	for i, w := range ws {
		r := float64(w.ops) / w.dur
		if i == 0 || r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return lo, hi
}

// reduceWindows returns the median throughput and median p50 over ws.
func reduceWindows(ws []window) (opsPerS, p50us float64) {
	rates := make([]float64, 0, len(ws))
	p50s := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.dur > 0 {
			rates = append(rates, float64(w.ops)/w.dur)
			p50s = append(p50s, w.p50us)
		}
	}
	return median(rates), median(p50s)
}
