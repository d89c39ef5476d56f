package wire

import (
	"bytes"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/metrics"
)

// startObservedServer is startServer plus a metrics registry shared
// between the endpoint and the wire server, the way continuumd wires it.
func startObservedServer(t *testing.T) (*metrics.Registry, string) {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("upper", func(p []byte) ([]byte, error) {
		return bytes.ToUpper(p), nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "local", Capacity: 4, ColdStart: 0, WarmTTL: time.Minute,
	}, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)
	srv := &Server{
		Invoker: ep, Batcher: ep, Registry: reg,
		Endpoints: []*faas.Endpoint{ep},
		Metrics:   m,
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return m, lis.Addr().String()
}

// TestRequestIDEcho drives raw frames with explicit IDs across three ops
// and checks each response carries its request's ID back verbatim.
func TestRequestIDEcho(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reqs := []Request{
		{Op: OpPing, ID: "ping-1"},
		{Op: OpInvoke, ID: "inv-2", Fn: "echo", Payload: []byte("x")},
		{Op: OpStats, ID: "stats-3"},
	}
	for _, req := range reqs {
		if err := WriteFrameCodec(conn, &req, CodecBinary); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if _, err := ReadFrameCodec(conn, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != req.ID {
			t.Fatalf("op %s: response ID %q, want %q", req.Op, resp.ID, req.ID)
		}
		if !resp.OK {
			t.Fatalf("op %s failed: %s", req.Op, resp.Error)
		}
	}
}

// TestRequestIDOmittedForOldPeers confirms a request without an ID is
// still served, and answered without one: the server echoes whatever ID
// arrives. (Client never sends such a request, and it breaks the
// connection on an ID-less response.)
func TestRequestIDOmittedForOldPeers(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrameCodec(conn, &Request{Op: OpPing}, CodecBinary); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if _, err := ReadFrameCodec(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != "" {
		t.Fatalf("ID-less request got ID %q back", resp.ID)
	}
}

func TestClientGeneratesUniqueIDs(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req1 := &Request{Op: OpPing}
	if _, err := c.roundTrip(req1); err != nil {
		t.Fatal(err)
	}
	req2 := &Request{Op: OpPing}
	if _, err := c.roundTrip(req2); err != nil {
		t.Fatal(err)
	}
	if req1.ID == "" || req2.ID == "" || req1.ID == req2.ID {
		t.Fatalf("IDs not unique: %q, %q", req1.ID, req2.ID)
	}
	if !strings.HasPrefix(req1.ID, c.prefix+"-") {
		t.Fatalf("ID %q missing connection prefix %q", req1.ID, c.prefix)
	}
}

func TestServerPerOpCounters(t *testing.T) {
	m, addr := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("echo", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("echo", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("ghost", nil); err == nil {
		t.Fatal("unknown function succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// A response can reach the client before its worker has counted it;
	// a request stays in flight until it is counted.
	waitCond(t, func() bool { return m.Gauge("wire_inflight").Value() == 0 })
	if got := m.Counter(metrics.Label("wire_requests_total", "op", "invoke")).Value(); got != 3 {
		t.Fatalf("invoke requests = %d, want 3", got)
	}
	if got := m.Counter(metrics.Label("wire_errors_total", "op", "invoke")).Value(); got != 1 {
		t.Fatalf("invoke errors = %d, want 1", got)
	}
	if got := m.Counter(metrics.Label("wire_requests_total", "op", "ping")).Value(); got != 1 {
		t.Fatalf("ping requests = %d, want 1", got)
	}
	if got := m.Counter(metrics.Label("wire_request_bytes_total", "op", "invoke")).Value(); got <= 0 {
		t.Fatalf("invoke request bytes = %d, want > 0", got)
	}
	if got := m.Counter(metrics.Label("wire_response_bytes_total", "op", "invoke")).Value(); got <= 0 {
		t.Fatalf("invoke response bytes = %d, want > 0", got)
	}
}

func TestClientTop(t *testing.T) {
	_, addr := startObservedServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Invoke("echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Invoke("upper", []byte("y")); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Top()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("top rows = %+v, want 2 entries", rows)
	}
	// Sorted by endpoint then fn: echo before upper.
	if rows[0].Fn != "echo" || rows[1].Fn != "upper" {
		t.Fatalf("row order = %q, %q", rows[0].Fn, rows[1].Fn)
	}
	e := rows[0]
	if e.Endpoint != "local" || e.Count != 5 {
		t.Fatalf("echo row = %+v", e)
	}
	if e.ColdStarts != 1 || e.WarmHits != 4 {
		t.Fatalf("echo cold/warm = %d/%d, want 1/4", e.ColdStarts, e.WarmHits)
	}
	if e.P50 < 0 || e.P99 < e.P50 {
		t.Fatalf("echo percentiles out of order: p50=%v p99=%v", e.P50, e.P99)
	}
}

func TestClientTopWithoutMetrics(t *testing.T) {
	_, addr := startServer(t) // no registry attached
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Top(); err == nil {
		t.Fatal("top succeeded on a server without metrics")
	}
}

// TestServerLogsRequests checks the one-line-per-request contract: the
// structured line carries the request ID and op.
func TestServerLogsRequests(t *testing.T) {
	regF := faas.NewRegistry()
	regF.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "local", Capacity: 1, WarmTTL: time.Minute,
	}, regF)
	var buf bytes.Buffer
	srv := &Server{
		Invoker: ep, Registry: regF, Endpoints: []*faas.Endpoint{ep},
		Logger: slog.New(slog.NewTextHandler(&syncWriter{w: &buf}, nil)),
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Op: OpInvoke, ID: "trace-me", Fn: "echo", Payload: []byte("x")}
	if _, err := c.roundTrip(req); err != nil {
		t.Fatal(err)
	}
	c.Close()
	srv.Close()

	out := buf.String()
	if !strings.Contains(out, "trace-me") || !strings.Contains(out, "op=invoke") {
		t.Fatalf("log line missing id/op: %q", out)
	}
}

// syncWriter serializes writes so the handler goroutine and the test body
// never race on the buffer.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
