// Package metrics provides the measurement plumbing used by every
// experiment and by the live serving path: log-bucketed latency
// histograms with percentile queries, counters, gauges, plain-text table
// rendering for the experiment output, and Prometheus text-format
// exposition (see prometheus.go). All metric types and the Registry are
// safe for concurrent use.
package metrics

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram is a log-bucketed histogram for positive values spanning many
// orders of magnitude (latencies from ns to hours). Relative bucket error
// is bounded by the growth factor (~4.6% with 64 buckets per decade... we
// use a fixed 1.07 growth giving <7% relative error). Zero and negative
// values land in a dedicated underflow bucket. All methods are safe for
// concurrent use.
type Histogram struct {
	mu        sync.Mutex
	counts    []int64
	underflow int64
	n         int64
	sum       float64
	min, max  float64
	seen      bool
	// exemplars holds the latest traced observation per bucket (key -1 =
	// underflow), linking a histogram bucket to a concrete trace ID in
	// the Prometheus exposition. Lazily allocated: histograms that never
	// see AddExemplar pay nothing.
	exemplars map[int]Exemplar
}

// Exemplar ties one observed value to the trace that produced it, so a
// latency spike in a scraped histogram links directly to an inspectable
// trace (`continuumctl trace <id>`).
type Exemplar struct {
	Value   float64
	TraceID string
}

const (
	histGrowth  = 1.07
	histMinVal  = 1e-9 // 1 ns in seconds
	histBuckets = 512  // covers ~1e-9 .. ~1e6 with 7% resolution
)

var logGrowth = math.Log(histGrowth)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, histBuckets)}
}

func bucketOf(v float64) int {
	if v < histMinVal {
		return -1
	}
	b := int(math.Log(v/histMinVal) / logGrowth)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func bucketUpper(b int) float64 {
	return histMinVal * math.Pow(histGrowth, float64(b+1))
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.mu.Lock()
	h.addLocked(v)
	h.mu.Unlock()
}

// addLocked records v and returns the bucket it landed in (-1 =
// underflow). Caller holds h.mu.
func (h *Histogram) addLocked(v float64) int {
	if h.counts == nil {
		h.counts = make([]int64, histBuckets)
	}
	h.n++
	h.sum += v
	if !h.seen || v < h.min {
		h.min = v
	}
	if !h.seen || v > h.max {
		h.max = v
	}
	h.seen = true
	b := bucketOf(v)
	if b >= 0 {
		h.counts[b]++
	} else {
		h.underflow++
	}
	return b
}

// AddExemplar records one observation attributed to a trace: the value
// is Added normally, and the (value, trace ID) pair replaces the
// bucket's exemplar, so each exposed bucket carries the most recent
// trace that landed in it. An empty traceID degrades to a plain Add.
func (h *Histogram) AddExemplar(v float64, traceID string) {
	h.mu.Lock()
	b := h.addLocked(v)
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make(map[int]Exemplar)
		}
		h.exemplars[b] = Exemplar{Value: v, TraceID: traceID}
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { h.mu.Lock(); defer h.mu.Unlock(); return h.n }

// Mean returns the exact mean (tracked outside the buckets).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) with
// relative error bounded by the bucket growth factor. Empty histograms
// return 0.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(q * float64(h.n))
	if target < h.underflow {
		return histMinVal
	}
	cum := h.underflow
	for b, c := range h.counts {
		cum += c
		if cum > target {
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// P50, P90, P99 are convenience percentile accessors.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P90 returns the 90th percentile estimate.
func (h *Histogram) P90() float64 { return h.Quantile(0.90) }

// P99 returns the 99th percentile estimate.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// histSnapshot is a point-in-time copy of the histogram state the
// Prometheus exposition renders.
type histSnapshot struct {
	counts    []int64
	underflow int64
	n         int64
	sum       float64
	exemplars map[int]Exemplar
}

func (h *Histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := make([]int64, len(h.counts))
	copy(counts, h.counts)
	return histSnapshot{
		counts: counts, underflow: h.underflow, n: h.n, sum: h.sum, exemplars: maps.Clone(h.exemplars),
	}
}

// Counter is a monotonically increasing count with a name. The zero value
// is ready to use; all methods are safe for concurrent use.
type Counter struct {
	Name string
	v    atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight requests, queue
// depth). The zero value is ready to use; all methods are safe for
// concurrent use.
type Gauge struct {
	Name string
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d (negative d decreases it).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is a named collection of histograms, counters and gauges,
// shared by one simulation run or one serving process. It is safe for
// concurrent use; the accessor methods create on first reference, so
// hammering the same name from many goroutines always yields one shared
// metric.
type Registry struct {
	mu         sync.Mutex
	histograms map[string]*Histogram
	counters   map[string]*Counter
	gauges     map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		histograms: make(map[string]*Histogram),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
	}
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{Name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{Name: name}
		r.gauges[name] = g
	}
	return g
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m { //det: sorted below
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EachHistogram calls f for every registered histogram in name order. f
// must not call back into r (the registry lock is not held, but metric
// handles are shared live objects).
func (r *Registry) EachHistogram(f func(name string, h *Histogram)) {
	r.mu.Lock()
	names := sortedKeys(r.histograms)
	hs := make([]*Histogram, len(names))
	for i, n := range names {
		hs[i] = r.histograms[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		f(n, hs[i])
	}
}

// EachCounter calls f for every registered counter in name order.
func (r *Registry) EachCounter(f func(name string, c *Counter)) {
	r.mu.Lock()
	names := sortedKeys(r.counters)
	cs := make([]*Counter, len(names))
	for i, n := range names {
		cs[i] = r.counters[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		f(n, cs[i])
	}
}

// EachGauge calls f for every registered gauge in name order.
func (r *Registry) EachGauge(f func(name string, g *Gauge)) {
	r.mu.Lock()
	names := sortedKeys(r.gauges)
	gs := make([]*Gauge, len(names))
	for i, n := range names {
		gs[i] = r.gauges[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		f(n, gs[i])
	}
}

// FormatDuration renders a duration in seconds with an adaptive unit,
// e.g. 1.5e-05 -> "15.0µs".
func FormatDuration(sec float64) string {
	abs := math.Abs(sec)
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.1fns", sec*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	case abs < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	case abs < 120:
		return fmt.Sprintf("%.2fs", sec)
	default:
		return fmt.Sprintf("%.1fmin", sec/60)
	}
}

// FormatBytes renders a byte count with an adaptive binary unit.
func FormatBytes(b float64) string {
	abs := math.Abs(b)
	switch {
	case abs < 1024:
		return fmt.Sprintf("%.0fB", b)
	case abs < 1024*1024:
		return fmt.Sprintf("%.1fKiB", b/1024)
	case abs < 1024*1024*1024:
		return fmt.Sprintf("%.1fMiB", b/(1024*1024))
	case abs < 1024*1024*1024*1024:
		return fmt.Sprintf("%.2fGiB", b/(1024*1024*1024))
	default:
		return fmt.Sprintf("%.2fTiB", b/(1024*1024*1024*1024))
	}
}
