package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// mkSpan builds a completed span for store tests.
func mkSpan(traceID, spanID, parent, svc, name string, start, end int64) *Span {
	return &Span{
		TraceID: traceID, SpanID: spanID, Parent: parent,
		Service: svc, Name: name, Kind: KindInternal,
		Start: start, End: end,
	}
}

func TestSpanStoreRingOverwrite(t *testing.T) {
	st := NewSpanStore(4)
	for i := 0; i < 10; i++ {
		st.Add(mkSpan("t", fmt.Sprintf("s%d", i), "", "svc", "op", int64(i), int64(i+1)))
	}
	if got := st.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", got)
	}
	if got := dropped(st); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	snap := st.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot retained %d spans, want 4", len(snap))
	}
	// The ring keeps the most recent adds, sorted by start.
	for i, sp := range snap {
		if want := fmt.Sprintf("s%d", 6+i); sp.SpanID != want {
			t.Fatalf("slot %d = %s, want %s (oldest spans must be overwritten)", i, sp.SpanID, want)
		}
	}
}

func TestSpanStoreDefaultSize(t *testing.T) {
	st := NewSpanStore(0)
	if len(st.slots) != DefaultSpanStoreSize {
		t.Fatalf("size 0 store got %d slots, want DefaultSpanStoreSize %d", len(st.slots), DefaultSpanStoreSize)
	}
}

// TestNilStoreAndSpanAreNoOps: the whole recording chain must be safe on
// a nil store — that is the zero-cost "tracing off" path every hot-path
// caller relies on.
func TestNilStoreAndSpanAreNoOps(t *testing.T) {
	var st *SpanStore
	st.Add(mkSpan("t", "s", "", "svc", "op", 0, 1))
	if st.Len() != 0 || st.Snapshot() != nil {
		t.Fatal("nil store must report empty")
	}
	sp := st.StartSpan(SpanContext{}, "svc", "op", KindClient)
	if sp != nil {
		t.Fatal("nil store must hand out nil active spans")
	}
	// Every method of a nil ActiveSpan is a no-op.
	sp.SetAttempt(1)
	sp.SetAttr("k", "v")
	sp.SetErr(fmt.Errorf("boom"))
	sp.End()
	if tc := sp.Context(); tc != (SpanContext{}) {
		t.Fatalf("nil span context = %+v, want zero", tc)
	}
}

func TestStartSpanRootAndChild(t *testing.T) {
	st := NewSpanStore(16)
	root := st.StartSpan(SpanContext{}, "svcA", "root-op", KindClient)
	if root.Context().TraceID == "" {
		t.Fatal("zero context must start a fresh trace")
	}
	child := st.StartSpan(root.Context(), "svcB", "child-op", KindServer)
	child.SetAttr("k", "v")
	child.End()
	root.SetErr(fmt.Errorf("late failure"))
	root.End()
	root.End() // double End records once

	spans := st.Trace(root.Context().TraceID)
	if len(spans) != 2 {
		t.Fatalf("trace has %d spans, want 2 (double End must not duplicate)", len(spans))
	}
	var r, c *Span
	for _, sp := range spans {
		switch sp.Name {
		case "root-op":
			r = sp
		case "child-op":
			c = sp
		}
	}
	if r == nil || c == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if r.Parent != "" {
		t.Fatalf("root parent = %q, want empty", r.Parent)
	}
	if c.Parent != r.SpanID {
		t.Fatalf("child parent = %q, want root span %q", c.Parent, r.SpanID)
	}
	if c.TraceID != r.TraceID {
		t.Fatal("child landed in a different trace")
	}
	if c.Attrs["k"] != "v" {
		t.Fatalf("child attrs = %v", c.Attrs)
	}
	if r.Err != "late failure" {
		t.Fatalf("root err = %q", r.Err)
	}
	if r.End < r.Start || c.End < c.Start {
		t.Fatal("span end precedes start")
	}
}

func TestContextPropagation(t *testing.T) {
	if _, ok := ContextSpan(context.Background()); ok {
		t.Fatal("bare context claims a trace")
	}
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	got, ok := ContextSpan(NewContext(context.Background(), sc))
	if !ok || got != sc {
		t.Fatalf("context round trip = %+v, %v", got, ok)
	}
	// A context carrying an empty trace ID counts as untraced.
	if _, ok := ContextSpan(NewContext(context.Background(), SpanContext{SpanID: "x"})); ok {
		t.Fatal("empty trace ID must read as untraced")
	}
}

func TestIDsAreUniqueAndWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q after %d draws", id, i)
		}
		seen[id] = true
	}
	if len(NewSpanID()) != 8 {
		t.Fatalf("span ID %q has wrong length", NewSpanID())
	}
}

func TestWriteJSONReadSpansRoundTrip(t *testing.T) {
	st := NewSpanStore(16)
	st.Add(mkSpan("trace-a", "s1", "", "svc1", "op1", 100, 200))
	st.Add(mkSpan("trace-a", "s2", "s1", "svc2", "op2", 120, 180))
	st.Add(mkSpan("trace-b", "s3", "", "svc1", "op3", 300, 400))

	var buf bytes.Buffer
	if err := st.WriteJSON(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteJSON produced invalid JSON: %s", buf.String())
	}
	all, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("round trip kept %d spans, want 3", len(all))
	}

	buf.Reset()
	if err := st.WriteJSON(&buf, "trace-a"); err != nil {
		t.Fatal(err)
	}
	filtered, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 2 {
		t.Fatalf("trace filter kept %d spans, want 2", len(filtered))
	}
	for _, sp := range filtered {
		if sp.TraceID != "trace-a" {
			t.Fatalf("filter leaked span from %s", sp.TraceID)
		}
	}

	// An empty store still writes a valid (empty) array.
	buf.Reset()
	if err := NewSpanStore(4).WriteJSON(&buf, ""); err != nil {
		t.Fatal(err)
	}
	empty, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty store round trip = %v, %v", empty, err)
	}
}

func TestMergeSpansDedup(t *testing.T) {
	a := []*Span{
		mkSpan("t1", "s1", "", "daemon-a", "server", 50, 90),
		mkSpan("t1", "s2", "s1", "daemon-a", "exec", 60, 80),
	}
	b := []*Span{
		mkSpan("t1", "s1", "", "daemon-a", "server", 50, 90), // duplicate pull
		mkSpan("t1", "s0", "", "ctl", "invoke", 10, 100),
	}
	merged := MergeSpans(a, b)
	if len(merged) != 3 {
		t.Fatalf("merged %d spans, want 3 (duplicate must collapse)", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Start > merged[i].Start {
			t.Fatal("merged spans not start-sorted")
		}
	}
	if merged[0].SpanID != "s0" {
		t.Fatalf("earliest span = %s, want s0", merged[0].SpanID)
	}
}

func TestSummarizeSlowestFirst(t *testing.T) {
	spans := []*Span{
		mkSpan("fast", "f1", "", "svc", "invoke fast", 0, 10),
		mkSpan("slow", "l1", "", "svc", "invoke slow", 0, 100),
		mkSpan("slow", "l2", "l1", "other", "exec", 20, 80),
	}
	spans[2].Err = "boom"
	sums := Summarize(spans)
	if len(sums) != 2 {
		t.Fatalf("%d summaries, want 2", len(sums))
	}
	s := sums[0]
	if s.TraceID != "slow" || s.Duration != 100 || s.Spans != 2 || s.Services != 2 || !s.Err || s.Root != "invoke slow" {
		t.Fatalf("slowest summary = %+v", s)
	}
	if sums[1].TraceID != "fast" || sums[1].Err {
		t.Fatalf("second summary = %+v", sums[1])
	}
}

func TestSpansToTracerChromeExport(t *testing.T) {
	sec := int64(time.Second)
	spans := []*Span{
		mkSpan("t", "a", "", "ctl", "invoke echo", 5*sec, 8*sec),
		mkSpan("t", "b", "a", "daemon", "exec echo", 6*sec, 7*sec),
	}
	spans[1].Err = "boom"
	tr := SpansToTracer(spans)
	if len(tr.events) != 4 {
		t.Fatalf("tracer has %d events, want 4 (start+end per span)", len(tr.events))
	}
	// Times are relative to the earliest span, not absolute unix time.
	if lo, hi := tr.Span(); lo != 0 || hi != 3 {
		t.Fatalf("tracer span = [%v, %v], want [0, 3]", lo, hi)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome trace is not valid JSON")
	}
	out := buf.String()
	if !strings.Contains(out, "invoke echo") || !strings.Contains(out, "exec echo !err") {
		t.Fatalf("Chrome trace missing span names:\n%s", out)
	}
}

// TestSpanStoreConcurrentHammer drives writers against snapshot readers;
// under -race (scripts/check.sh runs the full suite with the detector)
// this proves the lock-free ring is data-race-clean.
func TestSpanStoreConcurrentHammer(t *testing.T) {
	st := NewSpanStore(64)
	const writers, perWriter = 8, 500
	stop := make(chan struct{})
	var readersWG, writersWG sync.WaitGroup
	// Concurrent readers: Snapshot, Trace, WriteJSON, Len/Dropped.
	for i := 0; i < 4; i++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Snapshot()
				st.Trace("t0")
				st.WriteJSON(&bytes.Buffer{}, "")
				_ = st.Len()
				_ = dropped(st)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				sp := st.StartSpan(SpanContext{TraceID: fmt.Sprintf("t%d", w)}, "svc", "op", KindExec)
				sp.SetAttempt(i)
				sp.SetAttr("w", fmt.Sprint(w))
				sp.End()
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()
	if got := st.Len(); got != 64 {
		t.Fatalf("Len = %d after overflow, want full ring 64", got)
	}
	if want := int64(writers*perWriter - 64); dropped(st) != want {
		t.Fatalf("Dropped = %d, want %d", dropped(st), want)
	}
}

// dropped returns how many spans st's ring has overwritten.
func dropped(st *SpanStore) int64 {
	n := st.next.Load()
	if n <= uint64(len(st.slots)) {
		return 0
	}
	return int64(n - uint64(len(st.slots)))
}
