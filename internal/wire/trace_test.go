package wire

// Distributed-tracing tests for the live path: trace context must ride
// every request frame, every layer must emit correctly parented spans, a hedged race must record both
// arms under one trace with the loser marked cancelled, and OpTrace
// must pull a daemon's spans for cross-process assembly.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/trace"
)

// tracedServer builds an echo/work server whose wire server AND faas
// endpoint record into one fresh span store, mirroring continuumd.
func tracedServer(t *testing.T, name string, delay time.Duration) (*Server, *trace.SpanStore) {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("work", func(p []byte) ([]byte, error) {
		time.Sleep(delay)
		return bytes.ToUpper(p), nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{Name: name, Capacity: 8}, reg)
	store := trace.NewSpanStore(256)
	ep.SetSpans(store)
	srv := &Server{
		Invoker: ep, Batcher: ep, Registry: reg,
		Endpoints: []*faas.Endpoint{ep},
		Name:      name, Spans: store,
	}
	return srv, store
}

// spanBy returns the first span matching pred, or nil.
func spanBy(spans []*trace.Span, pred func(*trace.Span) bool) *trace.Span {
	for _, sp := range spans {
		if pred(sp) {
			return sp
		}
	}
	return nil
}

// TestRequestTrailerFixedLayout pins the request layout byte for byte:
// the trace strings, priority and member length follow the batch on
// every request, traced or not, and an all-default trailer decodes as
// untraced, normal priority, no member.
func TestRequestTrailerFixedLayout(t *testing.T) {
	plain := []byte{
		0xC6, binKindRequest,
		4, 'p', 'i', 'n', 'g', // Op
		1, 'a', // ID
		0,    // Fn
		0,    // Payload: nil
		0,    // Batch: nil
		0, 0, // TraceID, SpanID
		0, // Priority
		0, // member length: none
	}
	traced := append(append([]byte(nil), plain[:len(plain)-4]...),
		2, 't', '1', // TraceID
		2, 's', '1', // SpanID
		1, // Priority: zigzag(-1)
		0, // member length: none
	)
	for _, tc := range []struct {
		body []byte
		req  *Request
	}{
		{plain, &Request{Op: OpPing, ID: "a"}},
		{traced, &Request{Op: OpPing, ID: "a", TraceID: "t1", SpanID: "s1", Priority: -1}},
	} {
		var buf bytes.Buffer
		if err := WriteFrameCodec(&buf, tc.req, CodecBinary); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes()[4:]; !bytes.Equal(got, tc.body) {
			t.Fatalf("%+v encodes as % x, want % x", tc.req, got, tc.body)
		}
		out := new(Request)
		if _, err := ReadFrameCodec(&buf, out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, tc.req) {
			t.Fatalf("decoded %+v, want %+v", out, tc.req)
		}
	}
}

// TestUntracedRequestRecordsNothing: a request without trace context
// must leave the server's span store untouched (tracing is strictly
// opt-in per request).
func TestUntracedRequestRecordsNothing(t *testing.T) {
	srv, store := tracedServer(t, "epA", 0)
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if out, err := c.Invoke("echo", []byte("plain")); err != nil || string(out) != "plain" {
		t.Fatalf("untraced call = %q, %v", out, err)
	}
	if n := store.Len(); n != 0 {
		t.Fatalf("untraced request recorded %d spans: %+v", n, store.Snapshot())
	}
}

// TestTraceSpansAcrossClientServer: one traced call through the full
// stack must produce a correctly linked tree — send span on the client;
// server, queue, and exec spans on the daemon, each parented to its
// caller's span — and OpTrace must pull the daemon's half.
func TestTraceSpansAcrossClientServer(t *testing.T) {
	srv, serverStore := tracedServer(t, "epA", 0)
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clientStore := trace.NewSpanStore(64)
	c.SetSpans(clientStore, "ctl")

	traceID := trace.NewTraceID()
	ctx := trace.NewContext(context.Background(), trace.SpanContext{TraceID: traceID})
	if out, err := c.InvokeContext(ctx, "echo", []byte("hi")); err != nil || string(out) != "hi" {
		t.Fatalf("traced call = %q, %v", out, err)
	}

	send := spanBy(clientStore.Trace(traceID), func(sp *trace.Span) bool { return sp.Kind == trace.KindClient })
	if send == nil {
		t.Fatalf("no client send span: %+v", clientStore.Snapshot())
	}

	// Pull the daemon's half over the wire (the continuumctl trace path)
	// and check it matches the store directly.
	pulled, err := c.Trace(traceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(pulled) != len(serverStore.Trace(traceID)) {
		t.Fatalf("OpTrace returned %d spans, store has %d", len(pulled), len(serverStore.Trace(traceID)))
	}
	byKind := func(k trace.SpanKind) *trace.Span {
		for i := range pulled {
			if pulled[i].Kind == k {
				return &pulled[i]
			}
		}
		return nil
	}
	server, queue, exec := byKind(trace.KindServer), byKind(trace.KindQueue), byKind(trace.KindExec)
	if server == nil || queue == nil || exec == nil {
		t.Fatalf("daemon spans missing (server=%v queue=%v exec=%v): %+v", server, queue, exec, pulled)
	}
	if server.Parent != send.SpanID {
		t.Fatalf("server span parent = %q, want the client send span %q", server.Parent, send.SpanID)
	}
	if queue.Parent != server.SpanID || exec.Parent != server.SpanID {
		t.Fatalf("queue/exec parents = %q/%q, want the server span %q", queue.Parent, exec.Parent, server.SpanID)
	}
	if server.Service != "epA" || exec.Name != "exec echo" || queue.Name != "queue echo" {
		t.Fatalf("span naming: server.svc=%q queue=%q exec=%q", server.Service, queue.Name, exec.Name)
	}
	if exec.Attrs["container"] != "cold" {
		t.Fatalf("first exec container attr = %q, want cold", exec.Attrs["container"])
	}
	if _, ok := server.Attrs["pool_wait_us"]; !ok {
		t.Fatalf("server span missing pool_wait_us attr: %+v", server.Attrs)
	}
	for _, sp := range pulled {
		if sp.TraceID != traceID {
			t.Fatalf("span %s leaked into trace %s", sp.SpanID, sp.TraceID)
		}
		if sp.End < sp.Start {
			t.Fatalf("span %s ends before it starts", sp.SpanID)
		}
	}
}

// syncBuf is a mutex-guarded buffer: the server logs the request line
// AFTER writing the response, so the client returns while the log write
// may still be in flight on the server goroutine.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuf) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

// waitLog polls until the buffer satisfies ok or the deadline passes,
// returning the final contents either way.
func waitLog(b *syncBuf, ok func(string) bool) string {
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := b.String()
		if ok(s) || time.Now().After(deadline) {
			return s
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceIDInRequestLog: the per-request slog line must carry the
// trace ID so logs and traces cross-reference.
func TestTraceIDInRequestLog(t *testing.T) {
	srv, _ := tracedServer(t, "epA", 0)
	logBuf := new(syncBuf)
	srv.Logger = slog.New(slog.NewTextHandler(logBuf, nil))
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	traceID := trace.NewTraceID()
	ctx := trace.NewContext(context.Background(), trace.SpanContext{TraceID: traceID})
	if _, err := c.InvokeContext(ctx, "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got := waitLog(logBuf, func(s string) bool { return strings.Contains(s, "trace="+traceID) })
	if !strings.Contains(got, "trace="+traceID) {
		t.Fatalf("request log line missing trace ID %s:\n%s", traceID, got)
	}
	// Untraced requests must not log an empty trace attr. Wait for the
	// second request's line to land before asserting its shape.
	logBuf.Reset()
	if _, err := c.Invoke("echo", []byte("y")); err != nil {
		t.Fatal(err)
	}
	got = waitLog(logBuf, func(s string) bool { return strings.Contains(s, "msg=request") })
	if !strings.Contains(got, "msg=request") {
		t.Fatalf("untraced request never logged:\n%s", got)
	}
	if strings.Contains(got, "trace=") {
		t.Fatalf("untraced request logged a trace attr:\n%s", got)
	}
}

// TestHedgedTraceBothArms: a hedged race under tracing must record ONE
// trace holding the root, both arm spans (primary and hedge), the
// loser marked cancelled, the winner clean — and the merged view must
// assemble into a tree that exports as a Chrome trace.
func TestHedgedTraceBothArms(t *testing.T) {
	slowSrv, slowStore := tracedServer(t, "slow", 250*time.Millisecond)
	fastSrv, fastStore := tracedServer(t, "fast", 0)
	slowAddr := startServerOn(t, slowSrv)
	fastAddr := startServerOn(t, fastSrv)

	clientStore := trace.NewSpanStore(64)
	r, err := NewReliableClient(ReliableConfig{
		Addrs:   []string{slowAddr, fastAddr}, // pick starts at eps[0] = slow
		Hedge:   HedgeConfig{Enabled: true, Delay: 10 * time.Millisecond},
		Spans:   clientStore,
		Service: "ctl",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	out, err := r.Invoke("work", []byte("hedged"))
	if err != nil || string(out) != "HEDGED" {
		t.Fatalf("hedged call = %q, %v", out, err)
	}
	if _, wins := r.HedgeStats(); wins != 1 {
		t.Fatalf("hedge wins = %d, want 1", wins)
	}
	// The losing arm settles asynchronously once its cancellation lands.
	time.Sleep(100 * time.Millisecond)

	roots := trace.Summarize(clientStore.Snapshot())
	if len(roots) != 1 {
		t.Fatalf("client recorded %d traces, want exactly 1: %+v", len(roots), roots)
	}
	traceID := roots[0].TraceID
	spans := clientStore.Trace(traceID)

	root := spanBy(spans, func(sp *trace.Span) bool { return sp.Parent == "" })
	if root == nil || root.Kind != trace.KindClient || root.Name != "invoke work" {
		t.Fatalf("root span = %+v", root)
	}
	primary := spanBy(spans, func(sp *trace.Span) bool { return sp.Attrs["arm"] == "primary" })
	hedge := spanBy(spans, func(sp *trace.Span) bool { return sp.Attrs["arm"] == "hedge" })
	if primary == nil || hedge == nil {
		t.Fatalf("want primary+hedge arm spans, got %+v", spans)
	}
	for _, arm := range []*trace.Span{primary, hedge} {
		if arm.Kind != trace.KindAttempt || arm.Parent != root.SpanID {
			t.Fatalf("arm span %+v not an attempt child of the root", arm)
		}
	}
	// Loser: the primary landed on the slow endpoint, was cancelled when
	// the hedge won, and must say so. Winner: clean.
	if primary.Attrs["cancelled"] != "true" || primary.Err == "" {
		t.Fatalf("losing arm not marked cancelled: %+v", primary)
	}
	if primary.Attrs["ep"] != slowAddr || hedge.Attrs["ep"] != fastAddr {
		t.Fatalf("arm endpoints: primary=%q hedge=%q", primary.Attrs["ep"], hedge.Attrs["ep"])
	}
	if hedge.Err != "" {
		t.Fatalf("winning arm recorded an error: %+v", hedge)
	}

	// Cross-process assembly: merge all three stores; the winner's exec
	// span must be present and reachable root -> arm -> send -> server.
	merged := trace.MergeSpans(clientStore.Trace(traceID), slowStore.Trace(traceID), fastStore.Trace(traceID))
	byID := make(map[string]*trace.Span, len(merged))
	for _, sp := range merged {
		if sp.TraceID != traceID {
			t.Fatalf("merge leaked trace %s", sp.TraceID)
		}
		byID[sp.SpanID] = sp
	}
	exec := spanBy(merged, func(sp *trace.Span) bool { return sp.Kind == trace.KindExec && sp.Service == "fast" })
	if exec == nil {
		t.Fatalf("winner's exec span missing from the merged trace: %+v", merged)
	}
	for hop, sp := 0, exec; sp.Parent != ""; hop++ {
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %s (%s) has unresolvable parent %s", sp.SpanID, sp.Name, sp.Parent)
		}
		if hop > len(merged) {
			t.Fatal("parent chain cycles")
		}
		sp = parent
		if sp.Parent == "" && sp.SpanID != root.SpanID {
			t.Fatalf("exec span's ancestry tops out at %s, want the client root %s", sp.SpanID, root.SpanID)
		}
	}

	// And the assembled trace must export through the shared Chrome path.
	var chrome bytes.Buffer
	if err := trace.SpansToTracer(merged).WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(chrome.Bytes()) || !strings.Contains(chrome.String(), "invoke work") {
		t.Fatalf("Chrome export invalid or missing the root span:\n%s", chrome.String())
	}
}

// TestRetryTraceAttemptsAndFailover: a retry that fails over must
// record one attempt span per try, with the failover attributed.
func TestRetryTraceAttemptsAndFailover(t *testing.T) {
	// The flaky endpoint's only slot is held by a blocked call, so every
	// attempt on it rejects with a retryable overload; the good endpoint
	// answers normally.
	block := make(chan struct{})
	regFlaky := faas.NewRegistry()
	regFlaky.Register("echo", func(p []byte) ([]byte, error) { <-block; return p, nil })
	failEP := faas.NewEndpoint(faas.EndpointConfig{Name: "flaky", Capacity: 1, QueueWait: time.Millisecond}, regFlaky)
	failSrv := &Server{Invoker: failEP, Registry: regFlaky, Endpoints: []*faas.Endpoint{failEP}, Name: "flaky", Spans: trace.NewSpanStore(64)}
	goodSrv, _ := tracedServer(t, "good", 0)
	failAddr := startServerOn(t, failSrv)
	goodAddr := startServerOn(t, goodSrv)

	stuck, err := Dial(failAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	stuckDone := make(chan struct{})
	go func() { stuck.Invoke("echo", []byte("stuck")); close(stuckDone) }()
	time.Sleep(20 * time.Millisecond)

	clientStore := trace.NewSpanStore(64)
	r, err := NewReliableClient(ReliableConfig{
		Addrs:   []string{failAddr, goodAddr},
		Spans:   clientStore,
		Service: "ctl",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	out, err := r.Invoke("echo", []byte("persist"))
	close(block)
	<-stuckDone
	if err != nil || string(out) != "persist" {
		t.Fatalf("retried call = %q, %v", out, err)
	}

	sums := trace.Summarize(clientStore.Snapshot())
	if len(sums) != 1 {
		t.Fatalf("client recorded %d traces, want 1", len(sums))
	}
	spans := clientStore.Trace(sums[0].TraceID)
	var attempts []*trace.Span
	for _, sp := range spans {
		if sp.Kind == trace.KindAttempt {
			attempts = append(attempts, sp)
		}
	}
	if len(attempts) < 2 {
		t.Fatalf("want >= 2 attempt spans (initial + retry), got %+v", spans)
	}
	// The first attempt failed; a later one succeeded on the other
	// endpoint with failover attributed.
	first := spanBy(attempts, func(sp *trace.Span) bool { return sp.Attempt == 0 })
	if first == nil || first.Err == "" {
		t.Fatalf("first attempt span = %+v, want a recorded failure", first)
	}
	winner := spanBy(attempts, func(sp *trace.Span) bool { return sp.Err == "" })
	if winner == nil || winner.Attrs["ep"] != goodAddr || winner.Attrs["failover"] != "true" {
		t.Fatalf("winning attempt = %+v, want success on %s with failover=true", winner, goodAddr)
	}
}
