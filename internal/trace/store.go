package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultSpanStoreSize is the ring capacity used when a store is built
// with size <= 0. At ~200 B/span that bounds a daemon's trace memory to
// about a megabyte while retaining the last few hundred requests' worth
// of spans.
const DefaultSpanStoreSize = 4096

// SpanStore is a bounded in-process span buffer: recording overwrites
// the oldest span once full (a live daemon is interested in recent
// traces; the pull API exists precisely so anything older has already
// been scraped). Add is lock-free — one atomic increment and one atomic
// pointer store — so the serving hot path pays nanoseconds, and a nil
// *SpanStore discards everything at zero cost, mirroring the simulator
// tracer's nil discipline.
type SpanStore struct {
	slots []atomic.Pointer[Span]
	next  atomic.Uint64
}

// NewSpanStore returns a store retaining the most recent size spans
// (<= 0 = DefaultSpanStoreSize).
func NewSpanStore(size int) *SpanStore {
	if size <= 0 {
		size = DefaultSpanStoreSize
	}
	return &SpanStore{slots: make([]atomic.Pointer[Span], size)}
}

// Add records one completed span, overwriting the oldest when full. The
// span must not be mutated after Add. Nil stores discard.
func (st *SpanStore) Add(sp *Span) {
	if st == nil || sp == nil {
		return
	}
	i := st.next.Add(1) - 1
	st.slots[i%uint64(len(st.slots))].Store(sp)
}

// Len returns how many spans are currently retained.
func (st *SpanStore) Len() int {
	if st == nil {
		return 0
	}
	n := st.next.Load()
	if n > uint64(len(st.slots)) {
		return len(st.slots)
	}
	return int(n)
}

// Snapshot returns the retained spans sorted by start time. Each slot is
// read atomically; a concurrent writer may replace slots mid-walk, which
// can momentarily duplicate or skip an overwritten span — acceptable for
// a debugging view, and the race detector stays quiet because every
// access is atomic.
func (st *SpanStore) Snapshot() []*Span {
	if st == nil {
		return nil
	}
	out := make([]*Span, 0, len(st.slots))
	for i := range st.slots {
		if sp := st.slots[i].Load(); sp != nil {
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// Trace returns the retained spans belonging to one trace, sorted by
// start time.
func (st *SpanStore) Trace(id string) []*Span {
	var out []*Span
	for _, sp := range st.Snapshot() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	return out
}

// WriteJSON streams the retained spans as a JSON array — the payload of
// continuumd's /debug/traces endpoint. A non-empty traceID filters to
// one trace.
func (st *SpanStore) WriteJSON(w io.Writer, traceID string) error {
	spans := st.Snapshot()
	if traceID != "" {
		spans = st.Trace(traceID)
	}
	return writeSpans(w, len(spans), func(i int) *Span { return spans[i] })
}

// writeSpans writes n spans, the i-th from span(i), as a JSON array with
// one span per line: the one span file format, for a store's snapshot
// and a simulator trace alike.
func writeSpans(w io.Writer, n int, span func(i int) *Span) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i := 0; i < n; i++ {
		if i > 0 {
			bw.WriteString(",")
		}
		if err := enc.Encode(span(i)); err != nil {
			return fmt.Errorf("trace: span export: %w", err)
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// StartSpan opens a span recorded into st on End. All methods of the
// returned *ActiveSpan are nil-safe, so callers write
//
//	sp := store.StartSpan(tc, svc, name, kind)
//	defer sp.End()
//
// unconditionally: with a nil store the whole chain costs one nil check
// per call and records nothing. A zero tc starts a new trace (the span
// becomes a root); otherwise the span joins tc's trace as a child of
// tc.SpanID.
func (st *SpanStore) StartSpan(tc SpanContext, service, name string, kind SpanKind) *ActiveSpan {
	if st == nil {
		return nil
	}
	if tc.TraceID == "" {
		tc.TraceID = NewTraceID()
	}
	return &ActiveSpan{
		store: st,
		span: Span{
			TraceID: tc.TraceID,
			SpanID:  NewSpanID(),
			Parent:  tc.SpanID,
			Service: service,
			Name:    name,
			Kind:    kind,
			Start:   time.Now().UnixNano(),
		},
	}
}

// ActiveSpan is a span being recorded. It is owned by one goroutine
// until End; the stored *Span is immutable afterwards.
type ActiveSpan struct {
	store *SpanStore
	span  Span
	ended bool
}

// Context returns the span's propagation context: its trace ID and its
// own span ID as the parent for callees. A nil span returns the zero
// context (untraced).
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.span.TraceID, SpanID: a.span.SpanID}
}

// SetAttempt records which retry attempt or hedge arm this span is.
func (a *ActiveSpan) SetAttempt(n int) {
	if a != nil {
		a.span.Attempt = n
	}
}

// SetAttr attaches one key/value fact to the span.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 4)
	}
	a.span.Attrs[k] = v
}

// SetErr marks the span failed (nil err leaves it untouched).
func (a *ActiveSpan) SetErr(err error) {
	if a != nil && err != nil {
		a.span.Err = err.Error()
	}
}

// End stamps the end time and records the span. Calling End twice
// records once.
func (a *ActiveSpan) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.span.End = time.Now().UnixNano()
	sp := a.span
	a.store.Add(&sp)
}

// ReadSpans parses a JSON span array (the /debug/traces payload or a
// continuumctl span file) back into spans.
func ReadSpans(r io.Reader) ([]*Span, error) {
	var out []*Span
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("trace: read spans: %w", err)
	}
	return out, nil
}

// MergeSpans combines span sets pulled from several processes into one
// start-sorted, SpanID-deduplicated slice — the assembly step behind
// `continuumctl trace`.
func MergeSpans(sets ...[]*Span) []*Span {
	seen := make(map[string]bool)
	var out []*Span
	for _, set := range sets {
		for _, sp := range set {
			key := sp.TraceID + "/" + sp.SpanID
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, sp)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// TraceSummary is one trace's aggregate view, used by
// `continuumctl trace -slowest`.
type TraceSummary struct {
	TraceID  string
	Root     string // root span name (or the earliest span's name)
	Services int
	Spans    int
	Start    int64
	Duration time.Duration
	Err      bool
}

// Summarize groups spans by trace and aggregates each trace's extent.
// Duration is last-end minus first-start across the whole trace, which
// also covers traces whose root span was overwritten in the ring.
func Summarize(spans []*Span) []TraceSummary {
	type agg struct {
		root       string
		rootIsRoot bool
		svcs       map[string]bool
		n          int
		start, end int64
		err        bool
	}
	traces := make(map[string]*agg)
	for _, sp := range spans {
		a := traces[sp.TraceID]
		if a == nil {
			a = &agg{svcs: make(map[string]bool), start: sp.Start, end: sp.End}
			traces[sp.TraceID] = a
		}
		a.n++
		a.svcs[sp.Service] = true
		if sp.Start < a.start {
			a.start = sp.Start
		}
		if sp.End > a.end {
			a.end = sp.End
		}
		if sp.Err != "" {
			a.err = true
		}
		if sp.Parent == "" && !a.rootIsRoot {
			a.root, a.rootIsRoot = sp.Name, true
		} else if a.root == "" {
			a.root = sp.Name
		}
	}
	out := make([]TraceSummary, 0, len(traces))
	for id, a := range traces { //det: out is sorted below, ties broken by the unique TraceID
		out = append(out, TraceSummary{
			TraceID: id, Root: a.root, Services: len(a.svcs), Spans: a.n,
			Start: a.start, Duration: time.Duration(a.end - a.start), Err: a.err,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// SpansToTracer copies spans into a Tracer so the Tracer's exporters —
// WriteChromeTrace above all — render live runs as they render the
// simulator's. Times shift to start at the earliest span, so a viewer's
// axis starts at 0 as it does for a simulated run.
func SpansToTracer(spans []*Span) *Tracer {
	t := New(0)
	if len(spans) == 0 {
		return t
	}
	epoch := spans[0].Start
	for _, sp := range spans {
		epoch = min(epoch, sp.Start)
	}
	for _, sp := range spans {
		c := *sp
		c.Start -= epoch
		c.End -= epoch
		t.Add(c)
	}
	return t
}
