// Package trace records what ran where and when — what moved, what
// failed — as Spans, for post-hoc analysis of both backends. The
// simulator appends to a Tracer; the live path records into a SpanStore.
// Both write the span JSON array that ReadSpans reads; a Tracer — or
// live spans copied into one by SpansToTracer — also renders Chrome
// trace-event JSON and an ASCII Gantt chart.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Tracer accumulates spans in emission order up to a bound (0 =
// unbounded). Overflow drops the newest spans and sets Dropped, never the
// oldest (the run's start usually matters most when debugging). A Tracer
// is single-threaded — the simulator's kernel is — so a run's records
// come out in one deterministic order. A nil *Tracer discards everything
// at zero cost.
type Tracer struct {
	limit   int
	chunks  [][]Span // chunkSpans spans each; only the last may be short
	n       int
	Dropped int64
}

// chunkSpans is how many spans a Tracer allocates at a time: a run's
// trace grows to tens of thousands of spans, and fixed chunks, unlike
// one growing slice, never copy the spans already recorded.
const chunkSpans = 1024

// New returns a tracer retaining at most limit spans (0 = unlimited).
func New(limit int) *Tracer {
	if limit < 0 {
		panic("trace: negative limit")
	}
	return &Tracer{limit: limit}
}

// Nanos converts virtual seconds to the int64 nanoseconds a Span carries.
func Nanos(seconds float64) int64 {
	return int64(math.Round(seconds * 1e9))
}

// Add appends one completed span.
func (t *Tracer) Add(sp Span) {
	if t == nil {
		return
	}
	if t.limit > 0 && t.n >= t.limit {
		t.Dropped++
		return
	}
	if t.n%chunkSpans == 0 {
		t.chunks = append(t.chunks, make([]Span, 0, chunkSpans))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, sp)
	t.n++
}

// at returns the i-th span in emission order.
func (t *Tracer) at(i int) *Span {
	return &t.chunks[i/chunkSpans][i%chunkSpans]
}

// Record appends the span of kind on service from start to end, in
// virtual seconds; an instant passes start == end. attempt is 0 for a
// first try and counts up with each re-dispatch.
func (t *Tracer) Record(start, end float64, kind SpanKind, service, name string, attempt int) {
	if t == nil {
		return
	}
	t.Add(Span{Service: service, Name: name, Kind: kind, Attempt: attempt, Start: Nanos(start), End: Nanos(end)})
}

// Filter returns the spans of the given kind, preserving order.
func (t *Tracer) Filter(kind SpanKind) []Span {
	var out []Span
	for i := range t.n {
		if sp := t.at(i); sp.Kind == kind {
			out = append(out, *sp)
		}
	}
	return out
}

// Entities returns the sorted set of services seen.
func (t *Tracer) Entities() []string {
	seen := map[string]bool{}
	for i := range t.n {
		seen[t.at(i).Service] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bounds returns the earliest start and the latest end (0, 0 when empty).
func (t *Tracer) bounds() (lo, hi int64) {
	if t.n == 0 {
		return 0, 0
	}
	lo, hi = math.MaxInt64, math.MinInt64
	for i := range t.n {
		sp := t.at(i)
		lo, hi = min(lo, sp.Start), max(hi, sp.End)
	}
	return lo, hi
}

// Gantt renders an ASCII busy-timeline, one lane per service that ran a
// task, width columns spanning the trace. '#' marks any-busy buckets.
func (t *Tracer) Gantt(width int) string {
	if width < 1 {
		panic("trace: Gantt width < 1")
	}
	lo, hi := t.bounds()
	if hi <= lo {
		return ""
	}
	bucket := float64(hi-lo) / float64(width)
	lanes := map[string][]byte{}
	for i := range t.n {
		sp := t.at(i)
		if sp.Kind != KindTask {
			continue
		}
		lane := lanes[sp.Service]
		if lane == nil {
			lane = []byte(strings.Repeat(".", width))
			lanes[sp.Service] = lane
		}
		s := int(float64(sp.Start-lo) / bucket)
		e := min(int(float64(sp.End-lo)/bucket), width-1)
		for i := s; i <= e; i++ {
			lane[i] = '#'
		}
	}
	ents := t.Entities()
	nameW := 0
	for _, e := range ents {
		nameW = max(nameW, len(e))
	}
	var b strings.Builder
	for _, ent := range ents {
		if lane := lanes[ent]; lane != nil {
			fmt.Fprintf(&b, "%-*s |%s|\n", nameW, ent, lane)
		}
	}
	// Time axis: lo left-aligned under the first lane column, hi
	// right-aligned under the last. When the width is too narrow to fit
	// both labels the pad clamps to a single space instead of going
	// negative (which used to left-shift hi and misalign the axis).
	loS, hiS := fmt.Sprintf("%.2fs", float64(lo)/1e9), fmt.Sprintf("%.2fs", float64(hi)/1e9)
	pad := max(width-len(loS)-len(hiS), 1)
	fmt.Fprintf(&b, "%-*s  %s%s%s\n", nameW, "", loS, strings.Repeat(" ", pad), hiS)
	return b.String()
}

// WriteJSON writes the spans in emission order as the JSON array that
// /debug/traces serves and ReadSpans reads.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return writeSpans(w, t.n, t.at)
}
