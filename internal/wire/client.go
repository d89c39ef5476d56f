package wire

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/faas"
	"continuum/internal/trace"
)

// Client is a multiplexed protocol client: many concurrent calls share
// one connection, matched to their responses by request ID, so a slow
// invocation never head-of-line-blocks the calls behind it. It is safe
// for concurrent use. Every request is stamped with a unique ID
// ("<connection-prefix>-<seq>") the server echoes back. A response the
// client cannot decode, or one without an ID, breaks the connection: no
// call ever receives a response meant for another.
type Client struct {
	conn    net.Conn
	gw      *groupWriter // writes request frames inline, batching concurrent ones
	prefix  string
	seq     atomic.Int64
	timeout atomic.Int64 // per-call deadline in nanoseconds, 0 = none

	pmu     sync.Mutex
	pending map[string]chan reply // in-flight calls by request ID
	broken  error                 // set once the reader dies

	spans   *trace.SpanStore // send spans for traced calls, nil = record nothing
	service string           // span service label, set with spans
}

// SetSpans attaches a span store: from then on every call made under a
// traced context (trace.NewContext) records one client send span —
// covering serialization, the wire, and the server's processing — into
// store, labeled with service. The span becomes the parent of the
// server's spans via the request's trace fields. Call before issuing
// traffic; untraced calls still cost nothing.
func (c *Client) SetSpans(store *trace.SpanStore, service string) {
	if service == "" {
		service = "client"
	}
	c.spans, c.service = store, service
}

// Dial connects to a server, bounding the TCP connect by
// DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	return newClient(conn)
}

// DialContext connects to a server under ctx: the connect is abandoned
// when ctx ends, and is additionally bounded by DefaultDialTimeout.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	d := net.Dialer{Timeout: DefaultDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn)
}

func newClient(conn net.Conn) (*Client, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: request-id seed: %w", err)
	}
	c := &Client{
		conn:    conn,
		prefix:  hex.EncodeToString(b[:]),
		pending: make(map[string]chan reply),
	}
	// Any write failure severs the connection, because a torn frame
	// desyncs every call sharing it.
	c.gw = newGroupWriter(conn, func(error) { conn.Close() })
	go c.readLoop()
	return c, nil
}

// SetCallTimeout bounds every subsequent round trip: the request write
// carries it as a write deadline and the response wait is bounded by a
// timer, so a dead or wedged peer surfaces as a timeout error instead
// of blocking forever. 0 (the default) disables the bound.
func (c *Client) SetCallTimeout(d time.Duration) {
	c.timeout.Store(int64(d))
}

// Broken reports whether the connection has failed; a broken client
// fails every call immediately and must be redialed.
func (c *Client) Broken() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.broken != nil
}

// Close closes the connection, failing all in-flight calls.
func (c *Client) Close() error { return c.conn.Close() }

// readLoop is the connection's single reader: it matches every inbound
// response to its waiting call and dies — failing all pending calls —
// on the first transport error. Reads are buffered, so a burst of
// pipelined small responses costs one syscall, not two per frame.
func (c *Client) readLoop() {
	cr := newConnReader(c.conn)
	for {
		resp := new(Response)
		_, body, err := cr.read(resp)
		if err != nil {
			c.fail(err)
			return
		}
		if resp.ID == "" {
			c.fail(errNoResponseID)
			return
		}
		c.deliver(reply{resp, body})
	}
}

// reply is one response on its way to its call, with the buffer it was
// decoded into when it has one of its own (a large body, see
// readFrame).
type reply struct {
	resp *Response
	body *frameBody
}

// errNoResponseID breaks a connection whose server did not echo a
// request ID: every request carries one, so such a response belongs to
// no call.
var errNoResponseID = errors.New("wire: response without a request ID")

// deliver routes one response to its call by ID. Responses for calls
// that already timed out or were cancelled are dropped.
func (c *Client) deliver(r reply) {
	c.pmu.Lock()
	ch := c.pending[r.resp.ID]
	delete(c.pending, r.resp.ID)
	c.pmu.Unlock()
	if ch != nil {
		ch <- r // buffered: never blocks the reader
	}
}

// fail marks the connection broken, refuses later request writes, and
// wakes every in-flight call.
func (c *Client) fail(err error) {
	c.gw.stop()
	c.pmu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	pend := c.pending
	c.pending = nil
	c.pmu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
}

// forget abandons an in-flight call (timeout, cancellation, write
// failure); its response, if one ever arrives, is dropped.
func (c *Client) forget(id string) {
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
}

// brokenErr returns the reader's terminal error.
func (c *Client) brokenErr() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.broken == nil {
		return net.ErrClosed
	}
	return fmt.Errorf("wire: connection failed: %w", c.broken)
}

func (c *Client) roundTrip(req *Request) (*Response, error) {
	resp, _, err := c.call(context.Background(), req)
	return resp, err
}

// call performs one call over the shared connection and also returns
// the buffer the response was decoded into, if it has one of its own. A
// traced ctx (trace.NewContext) stamps the request's trace fields so
// the server's spans join the caller's trace, and — when SetSpans was
// called — records a client send span around the round trip. The
// untraced path pays one context lookup and nothing else.
func (c *Client) call(ctx context.Context, req *Request) (*Response, *frameBody, error) {
	// A non-normal priority (faas.WithPriority) rides the request so the
	// server's admission controller sheds in class order.
	if p := faas.PriorityFromContext(ctx); p != faas.PriorityNormal {
		req.Priority = int(p)
	}
	tc, traced := trace.ContextSpan(ctx)
	if !traced {
		return c.doRoundTrip(ctx, req)
	}
	sp := c.spans.StartSpan(tc, c.service, "send "+string(req.Op), trace.KindClient)
	if sp != nil {
		tc = sp.Context() // server spans parent to the send span
	}
	req.TraceID, req.SpanID = tc.TraceID, tc.SpanID
	resp, body, err := c.doRoundTrip(ctx, req)
	sp.SetErr(err)
	sp.End()
	return resp, body, err
}

// doRoundTrip is the transport half of call. The effective
// deadline is the earlier of the client's call timeout and ctx's
// deadline; it bounds the request write with a write deadline and the
// response wait with a timer, and cancelling ctx cuts a write in
// progress, so a peer that stops reading cannot hold the caller past
// either. Timeout errors wrap context.DeadlineExceeded, which
// satisfies net.Error, so existing retry classification keeps working.
func (c *Client) doRoundTrip(ctx context.Context, req *Request) (*Response, *frameBody, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if req.ID == "" {
		b := make([]byte, 0, len(c.prefix)+20)
		b = append(b, c.prefix...)
		b = append(b, '-')
		req.ID = string(strconv.AppendInt(b, c.seq.Add(1), 10))
	}
	var deadline time.Time
	if d := time.Duration(c.timeout.Load()); d > 0 {
		deadline = time.Now().Add(d)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	ch := make(chan reply, 1)

	// Register before the frame can reach the wire, so the reader always
	// finds the call its response belongs to.
	c.pmu.Lock()
	if err := c.broken; err != nil {
		c.pmu.Unlock()
		return nil, nil, fmt.Errorf("wire: connection failed: %w", err)
	}
	c.pending[req.ID] = ch
	c.pmu.Unlock()
	if _, err := c.gw.writeFrame(ctx, req, deadline); err != nil {
		// The frame did not encode, the call ran out of time or was
		// cancelled while writing, or the write failed (a write failure
		// severs the connection, since a partial write desyncs the
		// framing for every call sharing it); drop our registration and
		// fail now instead of waiting for the reader to notice.
		c.forget(req.ID)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if expired(deadline) {
			return nil, nil, timedOut(req.ID)
		}
		return nil, nil, err
	}

	var timeoutC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case r, ok := <-ch:
		if !ok {
			if expired(deadline) {
				return nil, nil, timedOut(req.ID) // the write timeout severed the conn
			}
			return nil, nil, c.brokenErr()
		}
		if resp := r.resp; !resp.OK {
			return resp, nil, &RemoteError{
				Msg:            resp.Error,
				Retryable:      resp.Retryable,
				RetryAfterHint: time.Duration(resp.RetryAfterMS) * time.Millisecond,
			}
		}
		return r.resp, r.body, nil
	case <-ctx.Done():
		c.forget(req.ID)
		return nil, nil, ctx.Err()
	case <-timeoutC:
		c.forget(req.ID)
		return nil, nil, timedOut(req.ID)
	}
}

// expired reports whether a call's deadline (zero = none) has passed. A
// call that fails after its deadline reports the timeout, whatever
// broke: a write to a peer that stopped reading, cut partway by the
// deadline, severs the connection under every call sharing it.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// timedOut is a call's deadline error; it wraps context.DeadlineExceeded,
// which satisfies net.Error, so retry classification treats it as a
// transport timeout.
func timedOut(id string) error {
	return fmt.Errorf("wire: call %s timed out: %w", id, context.DeadlineExceeded)
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: OpPing})
	return err
}

// Invoke calls fn remotely.
func (c *Client) Invoke(fn string, payload []byte) ([]byte, error) {
	resp, err := c.roundTrip(&Request{Op: OpInvoke, Fn: fn, Payload: payload})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// InvokeContext calls fn remotely under ctx: the ctx deadline (and the
// client's call timeout) bound the round trip.
func (c *Client) InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	resp, _, err := c.call(ctx, &Request{Op: OpInvoke, Fn: fn, Payload: payload})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// InvokeBatch calls fn with several payloads in one frame.
func (c *Client) InvokeBatch(fn string, payloads [][]byte) ([][]byte, error) {
	resp, err := c.roundTrip(&Request{Op: OpBatch, Fn: fn, Batch: payloads})
	if err != nil {
		return nil, err
	}
	return resp.Batch, nil
}

// List returns registered function names.
func (c *Client) List() ([]string, error) {
	resp, err := c.roundTrip(&Request{Op: OpList})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Stats returns per-endpoint counters.
func (c *Client) Stats() ([]EndpointStats, error) {
	resp, err := c.roundTrip(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Top returns live per-function latency percentiles and cold/warm counts
// from the server's metrics registry. Fails if the server was started
// without one.
func (c *Client) Top() ([]FnMetrics, error) {
	resp, err := c.roundTrip(&Request{Op: OpTop})
	if err != nil {
		return nil, err
	}
	return resp.Top, nil
}

// Trace pulls the server's retained spans; a non-empty traceID filters
// to one trace. Fails if the server was started without a span store.
func (c *Client) Trace(traceID string) ([]trace.Span, error) {
	resp, err := c.roundTrip(&Request{Op: OpTrace, Fn: traceID})
	if err != nil {
		return nil, err
	}
	return resp.Spans, nil
}

// Register joins a federation: it announces info to the router this
// client is connected to and returns the generation the router assigned
// (echo it on every heartbeat and deregister) and the heartbeat
// interval the router expects.
func (c *Client) Register(info MemberInfo) (generation int64, heartbeat time.Duration, err error) {
	resp, err := c.roundTrip(&Request{Op: OpRegister, Member: &info})
	if err != nil {
		return 0, 0, err
	}
	return resp.Generation, time.Duration(resp.HeartbeatMS) * time.Millisecond, nil
}

// Heartbeat refreshes a registration with a live load snapshot. A
// router that no longer recognizes the member (expired, or superseded
// by a newer registration) answers with an error; the caller should
// Register again.
func (c *Client) Heartbeat(info MemberInfo) error {
	_, err := c.roundTrip(&Request{Op: OpHeartbeat, Member: &info})
	return err
}

// Deregister leaves a federation. drain true requests a graceful drain
// (the member stays listed, receives no new routes, and finishes its
// in-flight work); false leaves immediately. generation must echo the
// value Register returned.
func (c *Client) Deregister(name string, generation int64, drain bool) error {
	_, err := c.roundTrip(&Request{Op: OpDeregister, Member: &MemberInfo{
		Name: name, Generation: generation, Draining: drain,
	}})
	return err
}

// Endpoints lists the router's membership view — one MemberStatus per
// registered daemon with its last advertised load and the router's
// liveness verdict. Fails against a server that is not a router.
func (c *Client) Endpoints() ([]MemberStatus, error) {
	resp, err := c.roundTrip(&Request{Op: OpEndpoints})
	if err != nil {
		return nil, err
	}
	return resp.Members, nil
}
