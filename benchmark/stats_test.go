package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{9, 1, 5, 3}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if in[0] != 9 || in[3] != 3 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
}

// The driver judges spread with Python's statistics.quantiles(v, n=4);
// these are that function's outputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestReduceWindowsTakesMedians(t *testing.T) {
	ops, p50 := reduceWindows([]window{{100, 1, 10}, {10, 1, 500}, {120, 1, 12}})
	if ops != 100 || p50 != 12 {
		t.Errorf("reduceWindows = %v ops/s, %v us; one stalled window must not set either", ops, p50)
	}
}

func TestSliceWindowsDropsTheTail(t *testing.T) {
	w := int64(windowSeconds * 1e9)
	ws := sliceWindows([]sample{{w / 2, 1000}, {w / 2, 3000}, {w + 1, 5000}, {2*w + 5, 9000}}, 2*windowSeconds)
	if len(ws) != 2 || ws[0].ops != 2 || ws[1].ops != 1 || ws[0].p50us != 2 {
		t.Errorf("sliceWindows = %+v", ws)
	}
	if ws := sliceWindows([]sample{{1e8, 1000}}, 0.2); len(ws) != 1 || ws[0].dur != 0.2 || ws[0].ops != 1 {
		t.Errorf("a phase shorter than a window is one window of its own length, got %+v", ws)
	}
}
