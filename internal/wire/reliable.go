package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/metrics"
	"continuum/internal/retry"
	"continuum/internal/trace"
)

// ErrAllBreakersOpen is returned (and retried with backoff — cooldowns
// eventually admit a half-open probe) when every endpoint's circuit
// breaker is refusing traffic.
var ErrAllBreakersOpen = errors.New("wire: all endpoint breakers open")

// ErrNoEndpoints is returned when the client's endpoint set is empty —
// only possible on a Dynamic client before membership arrives (or after
// every member left). It is retried with backoff: a router's client
// set refills as daemons register, so a briefly-empty federation is a
// transient, not a verdict.
var ErrNoEndpoints = errors.New("wire: no endpoints")

// DefaultPoolSize is the number of pooled connections kept per endpoint
// when ReliableConfig.PoolSize is zero. Each connection is itself
// multiplexed, so a small pool is enough to spread load while keeping
// failover and concurrency from paying per-call dials.
const DefaultPoolSize = 2

// ReliableConfig parameterizes a ReliableClient.
type ReliableConfig struct {
	// Addrs lists the federation's endpoint addresses. Attempts rotate
	// across them, so a retry after a failure naturally fails over.
	// SetEndpoints replaces the set at runtime.
	Addrs []string
	// Dynamic permits an empty initial Addrs: the set is expected to be
	// populated later with SetEndpoints (a continuum-router builds its
	// client this way and feeds it the registry's live membership).
	// Calls made while the set is empty fail with ErrNoEndpoints, which
	// retries with backoff.
	Dynamic bool
	// PoolSize is how many multiplexed connections to keep per endpoint
	// (0 = DefaultPoolSize). Calls round-robin across the pool; broken
	// connections are redialed in place.
	PoolSize int
	// Retry is the backoff policy (zero value → retry defaults). Its
	// Retryable classifier defaults to IsRetryable plus
	// ErrAllBreakersOpen.
	Retry retry.Policy
	// Breaker parameterizes the per-endpoint circuit breakers (zero
	// value → breaker defaults).
	Breaker retry.BreakerConfig
	// CallTimeout bounds each round trip (0 = none). Connects are always
	// bounded by DefaultDialTimeout.
	CallTimeout time.Duration
	// Hedge enables hedged requests: a call still in flight after the
	// hedge delay fires a second identical request at a different
	// endpoint, the first response wins, and the stale arm is cancelled.
	// The zero value disables hedging.
	Hedge HedgeConfig
	// Metrics, when set, receives the reliability counters:
	//
	//	wire_breaker_state{ep}        0 closed, 1 open, 2 half-open
	//	wire_breaker_trips_total{ep}  transitions into open
	//	wire_client_retries_total     attempts after the first
	//	wire_client_failovers_total   attempts on a different endpoint
	//	                              than the previous try
	//	wire_conn_reuse_total         calls served by an already-open
	//	                              pooled connection (vs a fresh dial)
	//	wire_hedges_total             hedge arms launched
	//	wire_hedge_wins_total         calls won by the hedge arm
	Metrics *metrics.Registry

	// Spans, when set, records the caller's half of every traced
	// invocation: a root client span per InvokeContext call (started
	// fresh when the context carries no trace, so this is where a trace
	// is usually born), one attempt span per retry attempt and hedge arm
	// (attributed with endpoint, failover, and cancellation), and
	// breaker-open skips. Pooled connections share the store, so their
	// send spans land in the same place. Nil records nothing and keeps
	// the call path span-free.
	Spans *trace.SpanStore
	// Service labels this client's spans (default "client").
	Service string
}

// HedgeConfig parameterizes hedged requests (see ReliableConfig.Hedge).
// Hedging attacks tail latency: the slowest fraction of calls — a GC
// pause, a queue pileup, a cold container on one endpoint — is re-issued
// elsewhere instead of waited out. Each arm runs under the per-endpoint
// circuit breakers exactly like a normal call, except that the cancelled
// loser reports no outcome (the endpoint was not at fault), so hedging
// cannot double-trip a breaker.
type HedgeConfig struct {
	// Enabled turns hedging on. Hedging also requires at least two
	// endpoints — the hedge arm always targets a different one.
	Enabled bool
	// Delay is the fixed in-flight time before the hedge arm fires.
	// 0 derives the delay from the client's own observed latency: the
	// p99 of its completed calls, floored at 1ms, once 50 calls have
	// completed.
	Delay time.Duration
}

// ParseHedge turns a -hedge flag value into a HedgeConfig: "" is off,
// "auto" derives the delay from observed latency, and anything else must
// be a positive fixed delay such as "5ms".
func ParseHedge(s string) (HedgeConfig, error) {
	switch s {
	case "":
		return HedgeConfig{}, nil
	case "auto":
		return HedgeConfig{Enabled: true}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return HedgeConfig{}, fmt.Errorf("-hedge: want 'auto' or a positive duration, got %q", s)
	}
	return HedgeConfig{Enabled: true, Delay: d}, nil
}

// repEndpoint is one endpoint's client-side state: a small pool of
// lazily dialed, reusable multiplexed connections and the circuit
// breaker guarding them.
type repEndpoint struct {
	addr    string
	breaker *retry.Breaker
	reuse   *metrics.Counter // nil without a registry
	spans   *trace.SpanStore // handed to dialed clients, nil = untraced
	service string

	mu    sync.Mutex
	conns []*Client // fixed-size pool; nil slots are dialed on demand
	next  int       // round-robin cursor
}

// get returns a pooled connection, dialing (or redialing a broken
// slot) if needed. Slots rotate round-robin so concurrent calls spread
// across the pool.
func (e *repEndpoint) get(ctx context.Context, callTimeout time.Duration) (*Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	idx := e.next % len(e.conns)
	e.next++
	if c := e.conns[idx]; c != nil {
		if !c.Broken() {
			if e.reuse != nil {
				e.reuse.Inc()
			}
			return c, nil
		}
		c.Close()
		e.conns[idx] = nil
	}
	c, err := DialContext(ctx, e.addr)
	if err != nil {
		return nil, err
	}
	if callTimeout > 0 {
		c.SetCallTimeout(callTimeout)
	}
	if e.spans != nil {
		c.SetSpans(e.spans, e.service)
	}
	e.conns[idx] = c
	return c, nil
}

// closeConns closes every pooled connection, leaving empty slots that
// would redial on demand — called when the endpoint leaves the set, so
// nothing will. In-flight calls on the closed connections fail with a
// retryable transport error and fail over.
func (e *repEndpoint) closeConns() {
	e.mu.Lock()
	conns := e.conns
	e.conns = make([]*Client, len(conns))
	e.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// discard drops a broken connection so its slot redials. Only the
// exact client that failed is discarded — a concurrent caller may
// already have replaced it.
func (e *repEndpoint) discard(c *Client) {
	e.mu.Lock()
	for i, have := range e.conns {
		if have == c {
			e.conns[i] = nil
			break
		}
	}
	e.mu.Unlock()
	c.Close()
}

// ReliableClient invokes functions across a federation of endpoints with
// retry (exponential backoff, full jitter), failover, per-endpoint
// circuit breakers, and a per-endpoint pool of multiplexed connections.
// It is safe for concurrent use. A transport failure or a server
// response marked retryable moves the attempt to the next endpoint;
// definitive application errors return immediately.
type ReliableClient struct {
	cfg ReliableConfig

	// set is the immutable endpoint-set snapshot calls read lock-free;
	// epMu serializes SetEndpoints writers (the read path never takes it).
	set  atomic.Pointer[epSet]
	epMu sync.Mutex

	mu   sync.Mutex
	next int // round-robin start for the next call

	lat               *metrics.Histogram // completed-call latency, seconds
	hedges, hedgeWins atomic.Int64

	retries, failovers  *metrics.Counter // nil without a registry
	reuse               *metrics.Counter
	hedgesC, hedgeWinsC *metrics.Counter
}

// epSet is one immutable snapshot of the endpoint set. Membership
// changes build a fresh snapshot and swap the pointer, so the call path
// reads a consistent set without locks while SetEndpoints reconciles.
type epSet struct {
	list   []*repEndpoint
	byAddr map[string]*repEndpoint
}

// NewReliableClient builds a client over the configured endpoints. No
// connection is made until the first call.
func NewReliableClient(cfg ReliableConfig) (*ReliableClient, error) {
	if len(cfg.Addrs) == 0 && !cfg.Dynamic {
		return nil, errors.New("wire: reliable client needs at least one address")
	}
	r := &ReliableClient{cfg: cfg, lat: metrics.NewHistogram()}
	if cfg.Metrics != nil {
		r.retries = cfg.Metrics.Counter("wire_client_retries_total")
		r.failovers = cfg.Metrics.Counter("wire_client_failovers_total")
		r.reuse = cfg.Metrics.Counter("wire_conn_reuse_total")
		r.hedgesC = cfg.Metrics.Counter("wire_hedges_total")
		r.hedgeWinsC = cfg.Metrics.Counter("wire_hedge_wins_total")
	}
	r.set.Store(&epSet{})
	r.SetEndpoints(cfg.Addrs)
	return r, nil
}

// newEndpoint builds one endpoint's client-side state (breaker, metrics
// hookup, empty connection pool).
func (r *ReliableClient) newEndpoint(addr string) *repEndpoint {
	pool := r.cfg.PoolSize
	if pool <= 0 {
		pool = DefaultPoolSize
	}
	bc := r.cfg.Breaker
	if r.cfg.Metrics != nil {
		state := r.cfg.Metrics.Gauge(metrics.Label("wire_breaker_state", "ep", addr))
		state.Set(float64(retry.Closed))
		trips := r.cfg.Metrics.Counter(metrics.Label("wire_breaker_trips_total", "ep", addr))
		bc.OnStateChange = func(_, to retry.State) {
			state.Set(float64(to))
			if to == retry.Open {
				trips.Inc()
			}
		}
	}
	return &repEndpoint{
		addr:    addr,
		breaker: retry.NewBreaker(bc),
		reuse:   r.reuse,
		spans:   r.cfg.Spans,
		service: r.service(),
		conns:   make([]*Client, pool),
	}
}

// snapshot returns the current endpoint set.
func (r *ReliableClient) snapshot() *epSet { return r.set.Load() }

// SetEndpoints replaces the endpoint set, reconciling against the
// current one: endpoints whose address is kept retain their breaker
// state, latency history, and pooled connections; new addresses start
// fresh; removed addresses have their pools closed, which fails any
// call still in flight on them with a retryable transport error so it
// fails over to a surviving endpoint. Safe for concurrent use with the
// call path — calls read an immutable snapshot. Duplicate addresses
// collapse to one endpoint.
func (r *ReliableClient) SetEndpoints(addrs []string) {
	r.epMu.Lock()
	old := r.snapshot()
	next := &epSet{byAddr: make(map[string]*repEndpoint, len(addrs))}
	for _, addr := range addrs {
		if _, dup := next.byAddr[addr]; dup {
			continue
		}
		ep := old.byAddr[addr]
		if ep == nil {
			ep = r.newEndpoint(addr)
		}
		next.list = append(next.list, ep)
		next.byAddr[addr] = ep
	}
	r.set.Store(next)
	r.epMu.Unlock()
	for addr, ep := range old.byAddr {
		if next.byAddr[addr] == nil {
			ep.closeConns()
		}
	}
}

// EndpointAddrs returns the current endpoint addresses, in set order.
func (r *ReliableClient) EndpointAddrs() []string {
	set := r.snapshot()
	out := make([]string, len(set.list))
	for i, ep := range set.list {
		out[i] = ep.addr
	}
	return out
}

// service returns the span service label.
func (r *ReliableClient) service() string {
	if r.cfg.Service != "" {
		return r.cfg.Service
	}
	return "client"
}

// armSpan opens one attempt/arm span when the call is traced (a traced
// context and a configured store), attributed with the endpoint, the
// hedge arm, and whether this attempt failed over from another endpoint.
func (r *ReliableClient) armSpan(ctx context.Context, ep *repEndpoint, attempt int, arm string, failover bool) *trace.ActiveSpan {
	if r.cfg.Spans == nil {
		return nil
	}
	tc, ok := trace.ContextSpan(ctx)
	if !ok {
		return nil
	}
	sp := r.cfg.Spans.StartSpan(tc, r.service(), "attempt", trace.KindAttempt)
	sp.SetAttempt(attempt)
	sp.SetAttr("ep", ep.addr)
	if arm != "" {
		sp.SetAttr("arm", arm)
	}
	if failover {
		sp.SetAttr("failover", "true")
	}
	return sp
}

// skipSpan records a breaker-open skip: the attempt found no admitting
// endpoint — a delay that would otherwise be invisible in a trace.
func (r *ReliableClient) skipSpan(ctx context.Context, attempt int) {
	if r.cfg.Spans == nil {
		return
	}
	tc, ok := trace.ContextSpan(ctx)
	if !ok {
		return
	}
	sp := r.cfg.Spans.StartSpan(tc, r.service(), "breaker-open", trace.KindInternal)
	sp.SetAttempt(attempt)
	sp.SetErr(ErrAllBreakersOpen)
	sp.End()
}

// policy returns the retry policy with the default classifier filled in.
func (r *ReliableClient) policy() retry.Policy {
	p := r.cfg.Retry
	if p.Retryable == nil {
		p.Retryable = func(err error) bool {
			return errors.Is(err, ErrAllBreakersOpen) || errors.Is(err, ErrNoEndpoints) || IsRetryable(err)
		}
	}
	return p
}

// pick selects the next endpoint other than avoid (nil avoids none)
// whose breaker admits traffic, rotating round-robin so consecutive
// attempts (and concurrent calls) spread across the federation, and
// returns the breaker's ticket for the call. Returns nil when no such
// endpoint admits traffic.
func (r *ReliableClient) pick(avoid *repEndpoint) (*repEndpoint, retry.Ticket) {
	eps := r.snapshot().list
	r.mu.Lock()
	start := r.next
	r.next++
	r.mu.Unlock()
	now := time.Now()
	for i := range eps {
		if ep := eps[(start+i)%len(eps)]; ep != avoid {
			if tk, ok := ep.breaker.Allow(now); ok {
				return ep, tk
			}
		}
	}
	return nil, retry.Ticket{}
}

// pickPreferred walks a preference-ordered address list (a routing
// policy's output), consuming entries via *idx so consecutive attempts
// advance down the list instead of re-trying the same first choice.
// Addresses no longer in the set — membership moved on since the
// preference was computed — or refused by their breaker are skipped.
// Returns nil when the list is exhausted; the caller falls back to
// pick().
func (r *ReliableClient) pickPreferred(prefer []string, idx *int) (*repEndpoint, retry.Ticket) {
	if *idx >= len(prefer) {
		return nil, retry.Ticket{}
	}
	set := r.snapshot()
	now := time.Now()
	for *idx < len(prefer) {
		addr := prefer[*idx]
		*idx++
		if ep := set.byAddr[addr]; ep != nil {
			if tk, ok := ep.breaker.Allow(now); ok {
				return ep, tk
			}
		}
	}
	return nil, retry.Ticket{}
}

// settle reports an attempt's outcome to the endpoint's breaker, with
// the ticket its Allow gave, and to its connection pool. A cancelled arm
// (the hedge race was decided elsewhere) reports no verdict: the
// endpoint was not at fault, so the breaker sees Cancel — which only
// returns the slot of a half-open probe — and the connection stays
// pooled (multiplexing cleans up the abandoned call). The ticket keeps a
// call admitted before the breaker last opened from moving it out of
// half-open.
func settle(ep *repEndpoint, tk retry.Ticket, c *Client, err error) {
	if err == nil {
		ep.breaker.Success(tk)
		return
	}
	if errors.Is(err, context.Canceled) {
		ep.breaker.Cancel(tk)
		return
	}
	ep.breaker.Failure(time.Now(), tk)
	var re *RemoteError
	if c != nil && !errors.As(err, &re) {
		// Transport-level failure: the connection is suspect.
		ep.discard(c)
	}
}

// attempts runs attempt on successive endpoints under the retry policy.
// Each attempt takes the next endpoint down prefer that its breaker
// admits, else the next round-robin, and is told whether it failed over
// from the previous attempt's endpoint. Finding none fails the attempt
// with ErrNoEndpoints, or with ErrAllBreakersOpen after recording a
// breaker-open skip; both retry.
func (r *ReliableClient) attempts(ctx context.Context, prefer []string, attempt func(ep *repEndpoint, tk retry.Ticket, n int, failover bool) error) error {
	var last *repEndpoint
	preferIdx := 0
	return r.policy().Do(ctx, func(n int) error {
		ep, tk := r.pickPreferred(prefer, &preferIdx)
		if ep == nil {
			ep, tk = r.pick(nil)
		}
		if ep == nil {
			if len(r.snapshot().list) == 0 {
				return ErrNoEndpoints // membership may arrive
			}
			r.skipSpan(ctx, n)
			return ErrAllBreakersOpen
		}
		failover := n > 0 && last != nil && ep != last
		if n > 0 && r.retries != nil {
			r.retries.Inc()
		}
		if failover && r.failovers != nil {
			r.failovers.Inc()
		}
		last = ep
		return attempt(ep, tk, n, failover)
	})
}

// do runs op on a pooled connection of successive endpoints under the
// retry policy.
func (r *ReliableClient) do(ctx context.Context, op func(*Client) error) error {
	return r.attempts(ctx, nil, func(ep *repEndpoint, tk retry.Ticket, _ int, _ bool) error {
		c, err := ep.get(ctx, r.cfg.CallTimeout)
		if err == nil {
			err = op(c)
		}
		settle(ep, tk, c, err)
		return err
	})
}

// Invoke calls fn with retry and failover.
func (r *ReliableClient) Invoke(fn string, payload []byte) ([]byte, error) {
	return r.InvokeContext(context.Background(), fn, payload)
}

// InvokeContext calls fn with retry, failover, and (when configured)
// hedging under ctx; ctx bounds the whole retry loop including backoff
// sleeps. With a span store configured the call records a root client
// span — joining ctx's trace when it carries one, starting a new trace
// otherwise — and one span per attempt, hedge arm, and breaker skip.
func (r *ReliableClient) InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	return r.invoke(ctx, fn, payload, nil, nil)
}

// InvokeRouted is InvokeContext steered by a routing policy: prefer is
// a preference-ordered address list (a rendezvous-hash order, a
// least-loaded ordering) that successive attempts consume in order —
// the first attempt takes the first admitted preferred endpoint, a
// retry after its failure moves to the next, and an exhausted list
// falls back to plain round-robin over whatever admits traffic. A
// preferred address that already left the set is skipped, so a stale
// preference degrades to ordinary failover instead of an error. This is
// the router's invocation path: policy chooses, ReliableClient
// retries/hedges/breaks exactly as for any other call. It is also a
// relay (relay.go): under a Server's invoke context, a clean call lets
// the Server recycle the payload's buffer and the returned bytes' once
// its response is written, so the caller must keep neither.
func (r *ReliableClient) InvokeRouted(ctx context.Context, fn string, payload []byte, prefer []string) ([]byte, error) {
	return r.invoke(ctx, fn, payload, prefer, relayOfferFrom(ctx))
}

// invoke runs the retry loop. offer, when non-nil, is taken if the call
// succeeds cleanly: no hedge arm was launched and every failed attempt
// was answered with an error response, so no frame of this call is
// still being written or awaited anywhere.
func (r *ReliableClient) invoke(ctx context.Context, fn string, payload []byte, prefer []string, offer *relayOffer) ([]byte, error) {
	var root *trace.ActiveSpan
	if r.cfg.Spans != nil {
		tc, _ := trace.ContextSpan(ctx)
		root = r.cfg.Spans.StartSpan(tc, r.service(), "invoke "+fn, trace.KindClient)
		ctx = trace.NewContext(ctx, root.Context())
	}
	var out []byte
	var body *frameBody
	clean := true
	err := r.attempts(ctx, prefer, func(ep *repEndpoint, tk retry.Ticket, attempt int, failover bool) error {
		res, b, hedged, err := r.invokeAttempt(ctx, ep, tk, fn, payload, attempt, failover)
		var re *RemoteError
		if hedged || (err != nil && !errors.As(err, &re)) {
			clean = false
		}
		if err != nil {
			return err
		}
		out, body = res, b
		return nil
	})
	root.SetErr(err)
	root.End()
	if err != nil {
		return nil, err
	}
	if offer != nil && clean {
		offer.take(body)
	}
	return out, nil
}

// attemptOn runs one call arm against one endpoint and settles its
// breaker/pool outcome. The breaker Allow for ep has already been spent
// (by pick or pickPreferred) and gave tk. Traced calls record an attempt
// span, which becomes the parent of the connection's send span (and,
// transitively, the server's spans); a cancelled arm — the hedge race
// was decided elsewhere — is marked cancelled rather than
// failed-by-endpoint. It also returns the buffer the result points
// into, if it has one of its own.
func (r *ReliableClient) attemptOn(ctx context.Context, ep *repEndpoint, tk retry.Ticket, fn string, payload []byte, attempt int, arm string, failover bool) ([]byte, *frameBody, error) {
	sp := r.armSpan(ctx, ep, attempt, arm, failover)
	if sp != nil {
		ctx = trace.NewContext(ctx, sp.Context())
	}
	c, err := ep.get(ctx, r.cfg.CallTimeout)
	if err != nil {
		settle(ep, tk, nil, err)
		sp.SetErr(err)
		sp.End()
		return nil, nil, err
	}
	start := time.Now()
	resp, body, err := c.call(ctx, &Request{Op: OpInvoke, Fn: fn, Payload: payload})
	settle(ep, tk, c, err)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			sp.SetAttr("cancelled", "true")
		}
		sp.SetErr(err)
		sp.End()
		return nil, nil, err
	}
	r.lat.Add(time.Since(start).Seconds())
	sp.End()
	return resp.Payload, body, nil
}

// armResult is one arm's outcome in a hedged race.
type armResult struct {
	ep   *repEndpoint
	out  []byte
	body *frameBody
	err  error
}

// invokeAttempt runs one logical attempt: a single call, or — when the
// hedge delay elapses with the primary still in flight — a two-arm race
// against distinct endpoints where the first success wins and the loser
// is cancelled. In a hedged race each arm records its own span
// ("primary"/"hedge"); the loser's ends cancelled, so one trace shows
// both arms and which one won. hedged reports whether a second arm was
// launched: the loser may still be reading the payload after the
// attempt returns.
func (r *ReliableClient) invokeAttempt(ctx context.Context, ep *repEndpoint, tk retry.Ticket, fn string, payload []byte, attempt int, failover bool) (out []byte, body *frameBody, hedged bool, err error) {
	delay, ok := r.hedgeDelay()
	if !ok {
		out, body, err = r.attemptOn(ctx, ep, tk, fn, payload, attempt, "", failover)
		return out, body, false, err
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan armResult, 2)
	arm := func(ep *repEndpoint, tk retry.Ticket, label string, failedOver bool) {
		out, body, err := r.attemptOn(actx, ep, tk, fn, payload, attempt, label, failedOver)
		results <- armResult{ep: ep, out: out, body: body, err: err}
	}
	go arm(ep, tk, "primary", failover)

	timer := time.NewTimer(delay)
	defer timer.Stop()

	pending := 1
	launched := false // the timer fired; hedged is set once a backup arm starts
	var firstErr error
	for {
		select {
		case <-timer.C:
			if launched {
				continue
			}
			launched = true
			backup, btk := r.pick(ep)
			if backup == nil {
				continue // no second endpoint admits traffic; race stays 1-arm
			}
			r.hedges.Add(1)
			if r.hedgesC != nil {
				r.hedgesC.Inc()
			}
			pending++
			hedged = true
			go arm(backup, btk, "hedge", false)
		case res := <-results:
			pending--
			if res.err == nil {
				if res.ep != ep {
					r.hedgeWins.Add(1)
					if r.hedgeWinsC != nil {
						r.hedgeWinsC.Inc()
					}
				}
				cancel() // preempt the losing arm; it settles as Cancel
				return res.out, res.body, hedged, nil
			}
			if firstErr == nil && !errors.Is(res.err, context.Canceled) {
				firstErr = res.err
			}
			if pending == 0 {
				if firstErr == nil {
					firstErr = res.err
				}
				return nil, nil, hedged, firstErr
			}
		}
	}
}

// hedgeDelay returns the in-flight time after which a call grows a second
// arm, and whether hedging applies at all right now. A fixed Delay always
// applies; a derived one is retry.HedgeDelay of the p99 of completed
// calls, so only the slowest ~1% of calls ever grow a second arm.
func (r *ReliableClient) hedgeDelay() (time.Duration, bool) {
	h := r.cfg.Hedge
	if !h.Enabled || len(r.snapshot().list) < 2 {
		return 0, false
	}
	if h.Delay > 0 {
		return h.Delay, true
	}
	d, ok := retry.HedgeDelay(r.lat, 0.99)
	return time.Duration(d * float64(time.Second)), ok
}

// HedgeStats returns how many hedge arms were launched and how many calls
// the hedge arm won.
func (r *ReliableClient) HedgeStats() (launched, wins int64) {
	return r.hedges.Load(), r.hedgeWins.Load()
}

// Ping round-trips against any live endpoint.
func (r *ReliableClient) Ping() error {
	return r.do(context.Background(), func(c *Client) error { return c.Ping() })
}

// List returns the function names registered on any live endpoint, with
// retry and failover — a router forwards the list op through this, so a
// federation answers with whichever member responds first.
func (r *ReliableClient) List() ([]string, error) {
	var names []string
	err := r.do(context.Background(), func(c *Client) error {
		var err error
		names, err = c.List()
		return err
	})
	return names, err
}

// BreakerStates returns each endpoint's current breaker state, keyed by
// address — continuumctl renders this after a failover-enabled run.
func (r *ReliableClient) BreakerStates() map[string]retry.State {
	eps := r.snapshot().list
	out := make(map[string]retry.State, len(eps))
	now := time.Now()
	for _, ep := range eps {
		out[ep.addr] = ep.breaker.State(now)
	}
	return out
}

// Close closes every pooled connection.
func (r *ReliableClient) Close() error {
	for _, ep := range r.snapshot().list {
		ep.closeConns()
	}
	return nil
}
