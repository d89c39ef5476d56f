// Package wire exposes the faas layer over TCP with a length-prefixed
// binary frame protocol (see codec.go), giving the reproduction a real
// multi-process mode: continuumd serves endpoints, continuumctl (or any
// Client) invokes functions across them. Frames are capped to guard
// against runaway peers.
//
// The protocol is multiplexed: clients pipeline many calls over one
// connection, and the server dispatches each connection's requests to a
// bounded worker pool, writing responses as they complete — out of
// order when a slow function would otherwise head-of-line-block the
// calls behind it. Responses are matched to requests by ID: clients
// stamp every request with a generated ID which the server echoes.
//
// Observability: a server given a metrics registry counts requests,
// errors, and frame bytes by op, and tracks in-flight requests as a
// gauge; given a logger it emits one structured line per request
// carrying the request ID, so a slow or failing invocation can be
// correlated across client and server logs.
//
// ReliableClient layers retry, failover, per-endpoint circuit breaking,
// and optional hedging (HedgeConfig) over the raw client: when a call
// outlives the hedge delay — fixed, or derived from the observed latency
// quantile — a second arm is launched at a different endpoint, the first
// answer wins, and the stale arm is cancelled without charging its
// endpoint's breaker.
package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/metrics"
	"continuum/internal/trace"
)

// MaxFrame bounds a single frame (16 MiB) so a corrupt length prefix
// cannot allocate unbounded memory.
const MaxFrame = 16 << 20

// DefaultDialTimeout bounds the TCP connect in Dial, so a blackholed
// address fails fast instead of hanging the caller for the kernel's
// minutes-long SYN retry budget.
const DefaultDialTimeout = 5 * time.Second

// DefaultConnWorkers bounds concurrent request processing per
// connection when Server.Workers is zero. Capacity-limited endpoints
// bound actual handler concurrency below this; the pool only caps how
// many requests one connection may have in flight inside the server.
const DefaultConnWorkers = 64

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// RemoteError is an application-level error response: the server
// answered with a well-formed frame carrying an error, so the connection
// itself is healthy. Retryable marks errors the server declared
// transient (overload, injected chaos) — safe to retry elsewhere.
// RetryAfterHint, when nonzero, is the server's Retry-After: how long it
// wants this client to back off before retrying (shed requests carry the
// admission controller's current queue-wait estimate).
type RemoteError struct {
	Msg            string
	Retryable      bool
	RetryAfterHint time.Duration
}

// Error returns the server's message.
func (e *RemoteError) Error() string { return e.Msg }

// RetryAfter exposes the server's backoff hint in the shape
// retry.RetryAfterHint extracts, so retry.Policy.Do floors its jittered
// backoff at the server's ask.
func (e *RemoteError) RetryAfter() time.Duration { return e.RetryAfterHint }

// IsRetryable classifies an error from a Client call as safe to retry on
// another connection or endpoint: transport failures (dials, resets,
// EOFs, timeouts) and server responses explicitly marked retryable.
// Definitive application errors (unknown function, handler failure) are
// not retryable — re-running them elsewhere would mask real bugs.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Retryable
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Op identifies a request type.
type Op string

// Protocol operations.
const (
	OpInvoke Op = "invoke"
	OpBatch  Op = "batch"
	OpList   Op = "list"
	OpStats  Op = "stats"
	OpTop    Op = "top"
	OpPing   Op = "ping"
	// OpTrace pulls the server's retained spans (Fn, when set, filters to
	// one trace ID) — the wire half of the pull-based trace store; the
	// other half is continuumd's /debug/traces HTTP endpoint.
	OpTrace Op = "trace"
	// OpRegister joins the federation: a daemon announces itself to a
	// continuum-router with Request.Member (name, advertised address,
	// capacity, functions). The response carries the assigned
	// Generation and the heartbeat interval (Response.HeartbeatMS).
	OpRegister Op = "register"
	// OpHeartbeat refreshes a member's liveness and load snapshot.
	// Request.Member repeats the registration body plus the live
	// queue-depth/in-flight/cordon figures and must echo the assigned
	// Generation; a router that no longer knows the member (expired, or
	// superseded by a newer registration) answers with an error telling
	// the daemon to re-register.
	OpHeartbeat Op = "heartbeat"
	// OpDeregister leaves the federation: Member.Draining true is a
	// graceful drain (stop routing new work, stay listed while in-flight
	// work finishes), false an immediate departure.
	OpDeregister Op = "deregister"
	// OpEndpoints lists the router's membership view
	// (Response.Members) — the wire half of `continuumctl endpoints`.
	OpEndpoints Op = "endpoints"
)

// Request is a client frame. ID is echoed verbatim on the response;
// Client stamps a unique one on every call.
//
// TraceID/SpanID carry distributed trace context: the trace this call
// belongs to and the caller's span (the parent for every span the server
// records while processing it). Both are empty on an untraced call.
//
// Priority is the request's admission class (faas.PriorityLow = -1,
// 0 = normal, faas.PriorityHigh = 1): under overload the server sheds
// lower classes first.
// Member is the federation control-plane body (register, heartbeat,
// deregister — see MemberInfo), nil on every other op.
type Request struct {
	Op       Op
	ID       string
	Fn       string
	Payload  []byte
	Batch    [][]byte
	TraceID  string
	SpanID   string
	Priority int
	Member   *MemberInfo

	// Accept is not encoded.
	//
	// Deprecated: it advertised the binary codec, which is now the only
	// one. It stays declared only because the benchmark's codec probe
	// still sets it; it is removed together with that probe line.
	Accept string
}

// EndpointStats mirrors one endpoint's counters.
type EndpointStats struct {
	Name        string `json:"name"`
	Capacity    int    `json:"capacity"`
	Running     int64  `json:"running"`
	Invocations int64  `json:"invocations"`
	ColdStarts  int64  `json:"cold_starts"`
	WarmHits    int64  `json:"warm_hits"`
}

// FnMetrics is one function's live latency profile on one endpoint, the
// unit of the top op (continuumctl top renders a table of these).
// Latencies are seconds.
type FnMetrics struct {
	Endpoint   string  `json:"ep"`
	Fn         string  `json:"fn"`
	Count      int64   `json:"count"`
	P50        float64 `json:"p50"`
	P90        float64 `json:"p90"`
	P99        float64 `json:"p99"`
	ColdStarts int64   `json:"cold_starts"`
	WarmHits   int64   `json:"warm_hits"`
}

// Response is a server frame. ID echoes the request's ID. Retryable,
// when set on an error response, marks the failure as transient — the
// client may safely retry the request on this or another endpoint.
// RetryAfterMS, set on shed (admission-rejected) error responses, is the
// server's Retry-After hint in milliseconds: how long the client should
// back off before retrying. It rides the rare-field extension, so an
// unloaded response pays nothing for it.
// Members, HeartbeatMS, and Generation are the federation control-plane
// results: Members answers the endpoints op, HeartbeatMS and Generation
// answer register (the interval the daemon must heartbeat at, and the
// incarnation it must echo).
type Response struct {
	OK           bool
	ID           string
	Error        string
	Retryable    bool
	RetryAfterMS int64
	Payload      []byte
	Batch        [][]byte
	Names        []string
	Stats        []EndpointStats
	Top          []FnMetrics
	Spans        []trace.Span // OpTrace result
	Members      []MemberStatus
	HeartbeatMS  int64
	Generation   int64
}

// OpsHandler extends a Server with additional ops without the Server
// knowing them. Dispatch offers every request to the handler first;
// returning handled=false falls through to the built-in ops. This is
// how a continuum-router serves the federation control ops (register,
// heartbeat, deregister, endpoints) on the same listener that routes
// invocations: the router's registry implements OpsHandler while
// invocations flow through the ordinary Invoker path, keeping span and
// priority threading.
type OpsHandler interface {
	HandleOp(req *Request) (resp *Response, handled bool)
}

// Server serves the protocol over accepted connections.
type Server struct {
	Invoker faas.Invoker
	Batcher interface {
		InvokeBatch(fn string, payloads [][]byte) ([][]byte, error)
	}
	Registry  *faas.Registry
	Endpoints []*faas.Endpoint

	// Ops, when set, is offered every request before the built-in
	// dispatch — see OpsHandler. Unhandled requests fall through.
	Ops OpsHandler

	// Workers bounds concurrent request processing per connection
	// (0 = DefaultConnWorkers).
	Workers int

	// Metrics, when set, receives per-op counters (wire_requests_total,
	// wire_errors_total, wire_request_bytes_total,
	// wire_response_bytes_total, all labeled {op}), the wire_inflight
	// gauge, and powers the top op. Share it with the endpoints'
	// SetMetrics so one /metrics exposition covers the whole daemon.
	Metrics *metrics.Registry
	// Logger, when set, emits one structured line per request with the
	// request ID, trace ID, op, function, outcome, and wall-clock
	// duration.
	Logger *slog.Logger

	// Name labels this process's spans (and the trace op's service
	// attribution). Empty falls back to "server".
	Name string
	// Spans, when set, records one server span per traced request (a
	// request carrying a TraceID) into a bounded ring, answers the trace
	// op from it, and threads trace context into the endpoints behind
	// ContextInvoker so queue-wait and exec spans join the same trace.
	// Share one store with the endpoints' SetSpans so a single pull
	// returns the whole daemon's view of a trace. Nil records nothing
	// and costs nothing on the request path.
	Spans *trace.SpanStore

	// chaos is the fault injector in force, nil = none (see SetChaos).
	chaos atomic.Pointer[fault.Chaos]

	inflightOnce sync.Once
	inflight     *metrics.Gauge // wire_inflight, nil without Metrics

	mu       sync.Mutex
	lis      net.Listener
	closed   bool
	draining bool
	conns    map[*countConn]struct{}
	wg       sync.WaitGroup
}

// countConn wraps a connection for the server side of multiplexing: a
// combining writer through which each worker writes its response frame
// inline — batched with the frames of workers that finish while a Write
// is in progress — and an in-flight request count so a draining server
// knows which connections it must not cut. Reads belong to the
// connection's single reader goroutine.
type countConn struct {
	net.Conn
	gw       *groupWriter
	inflight atomic.Int64
}

func newCountConn(conn net.Conn) *countConn {
	cc := &countConn{Conn: conn}
	// A write failure is terminal for the connection (torn framing);
	// severing it unblocks the reader, which tears the handler down.
	cc.gw = newGroupWriter(conn, func(error) { conn.Close() })
	return cc
}

// Serve accepts connections until the listener closes. It returns nil
// after Close.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes idle connections, and drains in-flight
// requests with no time bound. Use Shutdown for a bounded drain.
func (s *Server) Close() {
	s.drain(nil)
}

// Shutdown gracefully stops the server: it stops accepting, closes idle
// connections, and lets requests already being processed finish. After
// the grace period any connection still open is force-closed (its client
// sees a transport error and can retry elsewhere). Shutdown returns once
// every connection handler has exited.
func (s *Server) Shutdown(grace time.Duration) {
	t := time.NewTimer(grace)
	defer t.Stop()
	s.drain(t.C)
}

// drain implements Close/Shutdown; a nil deadline waits forever.
func (s *Server) drain(deadline <-chan time.Time) {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	lis := s.lis
	for c := range s.conns {
		if c.inflight.Load() == 0 {
			// Idle: unblock its reader. The barrier lets a response
			// that is still being written reach the wire first;
			// run it off the lock so a wedged peer cannot stall the drain
			// (the grace deadline force-closes it regardless).
			go func(c *countConn) {
				c.gw.barrier()
				c.Close()
			}(c)
		}
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// isDraining reports whether a drain has started.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// inflightGauge lazily resolves the wire_inflight gauge.
func (s *Server) inflightGauge() *metrics.Gauge {
	if s.Metrics == nil {
		return nil
	}
	s.inflightOnce.Do(func() {
		s.inflight = s.Metrics.Gauge("wire_inflight")
	})
	return s.inflight
}

// handle is one connection's reader loop: it reads frames and fans each
// request out to a bounded worker pool, so a slow call never blocks the
// calls pipelined behind it. Responses are written as they complete,
// inline by the worker or batched behind a Write in progress.
func (s *Server) handle(conn net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	// Registered under the lock so the draining check above covers it:
	// a drain that starts after this point finds the connection in
	// s.conns.
	cc := newCountConn(conn)
	if s.conns == nil {
		s.conns = make(map[*countConn]struct{})
	}
	s.conns[cc] = struct{}{}
	s.mu.Unlock()

	workers := s.Workers
	if workers <= 0 {
		workers = DefaultConnWorkers
	}
	// Persistent worker pool, grown on demand: dispatching a request is a
	// channel send to an already-running goroutine, not a goroutine spawn
	// (whose fresh stack would regrow through the handler on every
	// single request). The buffered channel doubles as the backpressure
	// bound: the reader blocks once `workers` requests are queued beyond
	// the ones being processed.
	tasks := make(chan connTask, workers)
	// The reader grows the pool from its own accounting: dispatched
	// minus finished is an upper bound on busy workers, so spawning while
	// it reaches spawned never leaves a request queued behind a blocked
	// handler with the pool below its bound. A count of idle workers
	// kept by the workers cannot say that: an idle worker may be about
	// to take the task sent just before.
	var spawned, dispatched int64
	var finished atomic.Int64
	var cwg sync.WaitGroup
	defer func() {
		close(tasks)
		cwg.Wait()      // every worker has returned from writing its response
		cc.gw.stop()    // refuse any later write
		cc.gw.barrier() // queued responses are on the wire (or the conn died)
		s.mu.Lock()
		delete(s.conns, cc)
		s.mu.Unlock()
		cc.Close()
	}()
	cr := newConnReader(cc.Conn) // a pipelined burst of small frames reads in one syscall
	for {
		req := new(Request)
		inB, body, err := cr.read(req)
		if err != nil {
			return // EOF, bad peer, or drain cut: drop the connection
		}
		// Read timestamp feeds the traced requests' worker-pool queue-wait
		// attribution; untraced serving skips the clock read.
		var read time.Time
		if s.Spans != nil && req.TraceID != "" {
			read = time.Now()
		}
		cc.inflight.Add(1)
		if dispatched-finished.Load() >= spawned && spawned < int64(workers) {
			spawned++
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				for t := range tasks {
					s.process(cc, t)
					finished.Add(1)
				}
			}()
		}
		dispatched++
		tasks <- connTask{req, body, inB, read}
		if s.isDraining() {
			return // graceful shutdown: stop reading, finish what's in flight
		}
	}
}

// connTask is one dispatched request on its way to a connection worker.
type connTask struct {
	req  *Request
	body *frameBody // the buffer req's payload points into, nil for a small frame
	inB  int64
	read time.Time // when the frame left the reader (traced requests only)
}

// serviceName labels this server's spans.
func (s *Server) serviceName() string {
	if s.Name != "" {
		return s.Name
	}
	return "server"
}

// process serves one request end to end: chaos injection, dispatch,
// response write, accounting. It decrements the connection's in-flight
// count and, during a drain, closes the connection once it goes idle so
// the blocked reader exits.
func (s *Server) process(cc *countConn, t connTask) {
	req, read := t.req, t.read
	start := time.Now()
	// Traced request on a traced server: record one server span parented
	// to the caller's span, covering chaos and dispatch. The worker-pool
	// wait (frame read to processing start) is attributed explicitly so
	// queueing inside the server is visible.
	var sp *trace.ActiveSpan
	if s.Spans != nil && req.TraceID != "" {
		sp = s.Spans.StartSpan(trace.SpanContext{TraceID: req.TraceID, SpanID: req.SpanID},
			s.serviceName(), string(req.Op), trace.KindServer)
		if !read.IsZero() {
			sp.SetAttr("pool_wait_us", strconv.FormatInt(start.Sub(read).Microseconds(), 10))
		}
	}
	g := s.inflightGauge()
	if g != nil {
		g.Add(1)
	}
	done := func() {
		if g != nil {
			g.Add(-1)
		}
		if cc.inflight.Add(-1) == 0 && s.isDraining() {
			// Drain: last in-flight request just finished. Let every
			// queued response reach the wire before cutting the
			// connection out from under the blocked reader.
			cc.gw.barrier()
			cc.Close()
		}
	}
	var resp *Response
	if chaos := s.chaos.Load(); chaos != nil {
		act, delay := chaos.NextAt(start)
		if delay > 0 {
			s.countChaos("delay")
			time.Sleep(delay)
		}
		switch act {
		case fault.ChaosDrop:
			s.countChaos("drop")
			if sp != nil {
				sp.SetErr(errors.New("chaos: dropped connection"))
				sp.End()
			}
			done()
			cc.Close() // sever mid-request, like a crashing endpoint
			return
		case fault.ChaosError:
			s.countChaos("error")
			resp = &Response{Error: "chaos: injected error", Retryable: true}
		}
	}
	var offer *relayOffer
	if resp == nil {
		if t.body != nil && req.Op == OpInvoke {
			offer = &relayOffer{req: t.body}
		}
		resp = s.dispatch(req, sp, offer)
	}
	resp.ID = req.ID
	if sp != nil {
		if resp.Error != "" {
			sp.SetErr(errors.New(resp.Error))
		}
		sp.End()
	}
	outB, err := cc.gw.writeFrame(context.Background(), resp, time.Time{})
	offer.release() // the frame is encoded: nothing reads the payloads now
	if err == nil {
		s.observe(req, resp, time.Since(start), t.inB, outB)
	}
	done() // after the accounting: a server with nothing in flight has counted every response
}

// SetChaos installs a fault injector ahead of every dispatch for all
// subsequent requests: latency spikes, retryable error responses,
// dropped connections, and whole down phases (see fault.ChaosSpec); nil
// turns injection off. Injections are counted as
// wire_chaos_injections_total{kind} when Metrics is set. This is how a
// real daemon doubles as its own fault injector (continuumd -chaos), and
// it is safe to call while serving — a scenario's live runner flips
// endpoints between healthy, flaky, and dead mid-run without restarting
// them. In-flight requests finish under whatever injector they drew at
// dispatch.
func (s *Server) SetChaos(c *fault.Chaos) {
	s.chaos.Store(c)
}

// countChaos tallies one injected fault by kind.
func (s *Server) countChaos(kind string) {
	if s.Metrics != nil {
		s.Metrics.Counter(metrics.Label("wire_chaos_injections_total", "kind", kind)).Inc()
	}
}

// observe publishes one request's accounting: per-op counters into the
// metrics registry and one structured log line. Both sinks are optional
// and independently nil-safe.
func (s *Server) observe(req *Request, resp *Response, d time.Duration, inB, outB int64) {
	op := string(req.Op)
	if s.Metrics != nil {
		s.Metrics.Counter(metrics.Label("wire_requests_total", "op", op)).Inc()
		if !resp.OK {
			s.Metrics.Counter(metrics.Label("wire_errors_total", "op", op)).Inc()
		}
		s.Metrics.Counter(metrics.Label("wire_request_bytes_total", "op", op)).Add(inB)
		s.Metrics.Counter(metrics.Label("wire_response_bytes_total", "op", op)).Add(outB)
	}
	if s.Logger != nil {
		attrs := []any{
			"id", req.ID, "op", op, "fn", req.Fn, "ok", resp.OK,
			"dur_ms", float64(d.Microseconds()) / 1000, "in_bytes", inB, "out_bytes", outB,
		}
		if req.TraceID != "" {
			attrs = append(attrs, "trace", req.TraceID)
		}
		if resp.Error != "" {
			attrs = append(attrs, "error", resp.Error)
			s.Logger.Warn("request", attrs...)
		} else {
			s.Logger.Info("request", attrs...)
		}
	}
}

// top summarizes every faas_invoke_duration_seconds histogram in the
// registry into per-(endpoint, function) latency percentiles, joined with
// the matching cold/warm counters. Sorted by endpoint then function for
// stable rendering.
func (s *Server) top() []FnMetrics {
	var out []FnMetrics
	s.Metrics.EachHistogram(func(name string, h *metrics.Histogram) {
		base, labels := metrics.SplitLabels(name)
		if base != "faas_invoke_duration_seconds" {
			return
		}
		ep, fn := labels["ep"], labels["fn"]
		out = append(out, FnMetrics{
			Endpoint:   ep,
			Fn:         fn,
			Count:      h.Count(),
			P50:        h.P50(),
			P90:        h.P90(),
			P99:        h.P99(),
			ColdStarts: s.Metrics.Counter(metrics.Label("faas_cold_starts_total", "ep", ep, "fn", fn)).Value(),
			WarmHits:   s.Metrics.Counter(metrics.Label("faas_warm_hits_total", "ep", ep, "fn", fn)).Value(),
		})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Endpoint != out[j].Endpoint {
			return out[i].Endpoint < out[j].Endpoint
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

// dispatch routes one decoded request to the right backend. sp, when
// non-nil, is the server span covering this request; its context is
// threaded into context-aware invokers so endpoint spans (queue-wait,
// exec) join the request's trace. offer, when non-nil, rides the same
// context to a relay (see relay.go).
func (s *Server) dispatch(req *Request, sp *trace.ActiveSpan, offer *relayOffer) *Response {
	if s.Ops != nil {
		if resp, handled := s.Ops.HandleOp(req); handled {
			return resp
		}
	}
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpInvoke:
		var out []byte
		var err error
		if ci, ok := s.Invoker.(faas.ContextInvoker); ok {
			ctx := context.Background()
			if req.Priority != 0 {
				ctx = faas.WithPriority(ctx, faas.Priority(req.Priority))
			}
			if sp != nil {
				ctx = trace.NewContext(ctx, sp.Context())
			}
			if offer != nil {
				offer.Context = ctx
				ctx = offer
			}
			out, err = ci.InvokeContext(ctx, req.Fn, req.Payload)
		} else {
			out, err = s.Invoker.Invoke(req.Fn, req.Payload)
		}
		if err != nil {
			// Overload rejections, a cordoned endpoint, and a draining
			// endpoint never started the work, so the client may safely
			// retry elsewhere.
			retryable := errors.Is(err, faas.ErrOverloaded) ||
				errors.Is(err, faas.ErrClosed) || errors.Is(err, faas.ErrCordoned)
			resp := &Response{Error: err.Error(), Retryable: retryable}
			// A shed request carries the admission controller's backoff
			// hint so the client's retry floors at the server's ask
			// instead of re-amplifying the overload.
			var oe *faas.OverloadError
			if errors.As(err, &oe) && oe.RetryAfter > 0 {
				resp.RetryAfterMS = int64(oe.RetryAfter / time.Millisecond)
				if resp.RetryAfterMS == 0 {
					resp.RetryAfterMS = 1 // sub-millisecond hints still round up, not off
				}
			}
			return resp
		}
		return &Response{OK: true, Payload: out}
	case OpBatch:
		if s.Batcher == nil {
			return &Response{Error: "wire: batch unsupported"}
		}
		outs, err := s.Batcher.InvokeBatch(req.Fn, req.Batch)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, Batch: outs}
	case OpList:
		if s.Registry == nil {
			return &Response{Error: "wire: no registry"}
		}
		return &Response{OK: true, Names: s.Registry.Names()}
	case OpTop:
		if s.Metrics == nil {
			return &Response{Error: "wire: no metrics registry (start the daemon with metrics enabled)"}
		}
		return &Response{OK: true, Top: s.top()}
	case OpTrace:
		if s.Spans == nil {
			return &Response{Error: "wire: no span store (start the daemon with tracing enabled)"}
		}
		var src []*trace.Span
		if req.Fn != "" {
			src = s.Spans.Trace(req.Fn)
		} else {
			src = s.Spans.Snapshot()
		}
		spans := make([]trace.Span, len(src))
		for i, p := range src {
			spans[i] = *p
		}
		return &Response{OK: true, Spans: spans}
	case OpStats:
		var stats []EndpointStats
		for _, ep := range s.Endpoints {
			stats = append(stats, EndpointStats{
				Name:        ep.Name(),
				Capacity:    ep.Capacity(),
				Running:     ep.Running(),
				Invocations: ep.Invocations(),
				ColdStarts:  ep.ColdStarts(),
				WarmHits:    ep.WarmHits(),
			})
		}
		return &Response{OK: true, Stats: stats}
	default:
		return &Response{Error: fmt.Sprintf("wire: unknown op %q", req.Op)}
	}
}
