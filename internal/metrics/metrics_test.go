package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"continuum/internal/workload"
)

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 ms
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) * 1e-3)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	p50 := h.P50()
	if p50 < 0.45 || p50 > 0.56 {
		t.Fatalf("P50 = %v, want ~0.5", p50)
	}
	p99 := h.P99()
	if p99 < 0.92 || p99 > 1.08 {
		t.Fatalf("P99 = %v, want ~0.99", p99)
	}
	if math.Abs(h.Mean()-0.5005) > 1e-9 {
		t.Fatalf("Mean = %v, want 0.5005 exactly", h.Mean())
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Add(0.25)
	if h.Quantile(0) != 0.25 || h.Quantile(1) != 0.25 {
		t.Fatal("q=0/q=1 should return min/max")
	}
}

func TestHistogramUnderflow(t *testing.T) {
	h := NewHistogram()
	h.Add(0)
	h.Add(-1)
	h.Add(1)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Quantile(0) != -1 || h.Quantile(1) != 1 {
		t.Fatalf("min/max = %v/%v", h.Quantile(0), h.Quantile(1))
	}
	// Low quantiles land in the underflow bucket, reported as histMinVal.
	if q := h.Quantile(0.1); q > 1e-8 {
		t.Fatalf("underflow quantile = %v, want ~1e-9", q)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	const v = 0.0371
	for i := 0; i < 100; i++ {
		h.Add(v)
	}
	q := h.Quantile(0.5)
	if math.Abs(q-v)/v > 0.08 {
		t.Fatalf("quantile %v deviates >8%% from %v", q, v)
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestPropertyHistogramQuantileMonotone(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := workload.NewRNG(seed)
		h := NewHistogram()
		for i := 0; i < int(n)+1; i++ {
			h.Add(rng.Lognormal(0, 2))
		}
		prev := 0.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-12 {
				return false
			}
			if v > h.Quantile(1)+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %v", g.Value())
	}
	g.Set(3.5)
	g.Add(1.5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("Value = %v, want 3", g.Value())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("done").Inc()
	r.Counter("done").Inc()
	if r.Counter("done").Value() != 2 {
		t.Fatal("registry counter not shared by name")
	}
	r.Histogram("h").Add(0.1)
	if r.Histogram("h").Count() != 1 {
		t.Fatal("registry histogram not shared by name")
	}
	r.Gauge("inflight").Set(2)
	if r.Gauge("inflight").Value() != 2 {
		t.Fatal("registry gauge not shared by name")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0s"},
		{5e-9, "5.0ns"},
		{1.5e-5, "15.0µs"},
		{0.0042, "4.20ms"},
		{1.25, "1.25s"},
		{300, "5.0min"},
	}
	for _, tc := range cases {
		if got := FormatDuration(tc.in); got != tc.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{100, "100B"},
		{2048, "2.0KiB"},
		{3 * 1024 * 1024, "3.0MiB"},
		{1.5 * 1024 * 1024 * 1024, "1.50GiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Errorf("FormatBytes(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "policy", "latency", "energy")
	tb.AddRow("edge", "1.2ms", "3J")
	tb.AddRow("cloud", "0.5", "42")
	out := tb.String()
	if !strings.Contains(out, "T1: demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "policy") || !strings.Contains(out, "cloud") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped-extra")
	out := tb.String()
	if strings.Contains(out, "dropped-extra") {
		t.Fatal("extra cell not dropped")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", `q"z`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Fatalf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, `"q""z"`) {
		t.Fatalf("quote cell not escaped: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("missing header: %q", csv)
	}
}
