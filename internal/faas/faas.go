// Package faas is the funcX analogue of the reproduction: federated
// function-as-a-service over heterogeneous endpoints. Functions register
// centrally; endpoints execute them in "containers" with a cold-start
// penalty and a warm pool; an optional batcher amortizes per-invocation
// overhead. Spreading invocations across endpoints is package
// federation's job.
//
// Unlike the simulation substrates, this package runs for real: handlers
// are Go functions, containers are capacity slots, and cold starts are
// wall-clock delays. The wire package exposes it over TCP.
package faas

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/metrics"
	"continuum/internal/trace"
)

// Handler executes one invocation payload.
type Handler func(payload []byte) ([]byte, error)

// ErrUnknownFunction is returned when a function was never registered.
var ErrUnknownFunction = errors.New("faas: unknown function")

// ErrClosed is returned by invocations after Close.
var ErrClosed = errors.New("faas: endpoint closed")

// ErrHandlerPanic wraps a panic recovered from a function handler. The
// panic is converted to an ordinary invocation error so one bad function
// cannot take the endpoint (or the daemon serving it) down.
var ErrHandlerPanic = errors.New("faas: handler panicked")

// ErrOverloaded marks an invocation rejected before any work started:
// shed by admission control, or its wait for a capacity slot exceeded
// QueueWait. Unlike an execution timeout it is always safe to retry on
// another endpoint.
var ErrOverloaded = errors.New("faas: endpoint overloaded")

// Registry maps function names to handlers. It is safe for concurrent use.
type Registry struct {
	mu  sync.RWMutex
	fns map[string]Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fns: make(map[string]Handler)}
}

// Register installs (or replaces) a handler under name.
func (r *Registry) Register(name string, h Handler) {
	if h == nil {
		panic("faas: nil handler")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fns[name] = h
}

// Lookup returns the handler for name.
func (r *Registry) Lookup(name string) (Handler, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.fns[name]
	return h, ok
}

// Names returns all registered function names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.fns))
	for n := range r.fns { //det: a live listing; no simulated report reads it
		out = append(out, n)
	}
	return out
}

// Invoker is anything that can execute a named function: an Endpoint, a
// federation.Local or federation.Router over many endpoints, or a
// Batcher.
type Invoker interface {
	Invoke(fn string, payload []byte) ([]byte, error)
}

// ContextInvoker is an Invoker that also honors a context deadline —
// Endpoints and federation.Router implement it; wrappers that cannot
// thread a context (the Batcher) stay plain Invokers.
type ContextInvoker interface {
	Invoker
	InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error)
}

// EndpointConfig parameterizes one execution site.
type EndpointConfig struct {
	Name     string
	Capacity int // maximum concurrently running containers

	// ColdStart is the wall-clock cost of provisioning a container for a
	// function with no warm instance available.
	ColdStart time.Duration
	// WarmTTL is how long an idle warm container survives before it is
	// considered expired (lazily, at next acquisition). Each function's
	// warm pool holds at most Capacity containers.
	WarmTTL time.Duration

	// QueueWait bounds how long an invocation may block waiting for a
	// capacity slot before failing with an error wrapping ErrOverloaded
	// (0 = wait forever, subject to the caller's context).
	QueueWait time.Duration
	// ExecTimeout bounds handler execution wall-clock time (0 =
	// unbounded). A timed-out invocation returns an error wrapping
	// context.DeadlineExceeded; the abandoned handler keeps its capacity
	// slot until it actually returns (Go cannot kill a goroutine), so a
	// stuck handler degrades capacity rather than corrupting state.
	ExecTimeout time.Duration
	// Admission configures the endpoint's slot gate. Enabled, it is
	// overload control: a priority-classed, adaptively bounded wait queue
	// with immediate load shedding and elastic slot sizing (see
	// AdmissionConfig). Disabled (the zero value), invocations wait for
	// one of Capacity slots in one FIFO queue.
	Admission AdmissionConfig

	// PreemptAbandoned frees the capacity slot of a handler abandoned by
	// context *cancellation* immediately, instead of when the handler
	// returns. Cancellation means the caller no longer wants the result —
	// typically a hedged request whose sibling arm won — and the handler
	// is presumed cooperative, so holding its slot would let every lost
	// hedge race shrink effective capacity. Deliberately not applied to
	// ExecTimeout or deadline expiry: those often mean a wedged handler,
	// and freeing its slot would oversubscribe the endpoint.
	PreemptAbandoned bool
}

// Endpoint executes functions in containers with a warm pool.
type Endpoint struct {
	cfg EndpointConfig
	reg *Registry

	adm *admitter // the slot gate

	// cordoned rejects new invocations (retryably) while letting
	// in-flight work finish; see SetCordon.
	cordoned atomic.Bool

	mu     sync.Mutex
	warm   map[string]*WarmPool // per function; a warm release allocates nothing
	born   time.Time            // time zero of the warm pools' clock
	closed bool

	// Stats (atomic): cold starts, warm hits, completed invocations.
	coldStarts  atomic.Int64
	warmHits    atomic.Int64
	invocations atomic.Int64

	// obs, when non-nil, publishes per-function latency histograms,
	// queue-wait, cold/warm counters, and an in-flight gauge into a
	// shared metrics registry (see SetMetrics). Absent registry = no
	// instrumentation on the invoke path.
	obs *epObserver

	// spans, when non-nil, records queue-wait and exec spans for traced
	// invocations (see SetSpans). Nil = no span work at all.
	spans *trace.SpanStore
}

// epObserver caches metric handles so the invoke hot path never formats
// label strings or takes the registry lock after first use of a function.
type epObserver struct {
	reg       *metrics.Registry
	ep        string
	queueWait *metrics.Histogram
	inflight  *metrics.Gauge

	// Gate instruments: slots and queueDepth move on every endpoint,
	// shed only on endpoints with Admission enabled.
	shed       [NumPriorities]*metrics.Counter
	slots      *metrics.Gauge
	queueDepth *metrics.Gauge

	mu  sync.Mutex
	fns map[string]*fnMetrics
}

type fnMetrics struct {
	latency     *metrics.Histogram
	cold, warm  *metrics.Counter
	invocations *metrics.Counter
	panics      *metrics.Counter
	preempted   *metrics.Counter
}

func newEpObserver(reg *metrics.Registry, ep string) *epObserver {
	o := &epObserver{
		reg:        reg,
		ep:         ep,
		queueWait:  reg.Histogram(metrics.Label("faas_queue_wait_seconds", "ep", ep)),
		inflight:   reg.Gauge(metrics.Label("faas_inflight", "ep", ep)),
		slots:      reg.Gauge(metrics.Label("faas_slots", "ep", ep)),
		queueDepth: reg.Gauge(metrics.Label("faas_queue_depth", "ep", ep)),
		fns:        make(map[string]*fnMetrics),
	}
	for cls := range o.shed {
		o.shed[cls] = reg.Counter(metrics.Label("faas_shed_total", "ep", ep, "prio", (Priority(cls) + PriorityLow).String()))
	}
	return o
}

// fn returns (creating on first use) the cached handles for one function.
func (o *epObserver) fn(name string) *fnMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, ok := o.fns[name]
	if !ok {
		m = &fnMetrics{
			latency:     o.reg.Histogram(metrics.Label("faas_invoke_duration_seconds", "ep", o.ep, "fn", name)),
			cold:        o.reg.Counter(metrics.Label("faas_cold_starts_total", "ep", o.ep, "fn", name)),
			warm:        o.reg.Counter(metrics.Label("faas_warm_hits_total", "ep", o.ep, "fn", name)),
			invocations: o.reg.Counter(metrics.Label("faas_invocations_total", "ep", o.ep, "fn", name)),
			panics:      o.reg.Counter(metrics.Label("faas_panics_total", "ep", o.ep, "fn", name)),
			preempted:   o.reg.Counter(metrics.Label("faas_preempted_total", "ep", o.ep, "fn", name)),
		}
		o.fns[name] = m
	}
	return m
}

// NewEndpoint creates an endpoint executing functions from reg.
func NewEndpoint(cfg EndpointConfig, reg *Registry) *Endpoint {
	if cfg.Capacity <= 0 {
		panic(fmt.Sprintf("faas: endpoint %q capacity %d <= 0", cfg.Name, cfg.Capacity))
	}
	return &Endpoint{
		cfg:  cfg,
		reg:  reg,
		adm:  newAdmitter(cfg.Admission, cfg.Capacity),
		warm: make(map[string]*WarmPool),
		born: time.Now(),
	}
}

// SetMetrics attaches a shared metrics registry. From then on every
// invocation records, labeled by endpoint and function name:
//
//	faas_invoke_duration_seconds{ep,fn}  end-to-end latency histogram
//	                                     (queue wait + cold start + handler)
//	faas_queue_wait_seconds{ep}          time blocked on a capacity slot
//	faas_cold_starts_total{ep,fn}        invocations that paid provisioning
//	faas_warm_hits_total{ep,fn}          invocations that reused a container
//	faas_invocations_total{ep,fn}        completed invocations
//	faas_panics_total{ep,fn}             handler panics recovered
//	faas_preempted_total{ep,fn}          cancelled invocations whose slot
//	                                     was freed early (PreemptAbandoned)
//	faas_inflight{ep}                    invocations currently in the endpoint
//	faas_slots{ep}                       the gate's concurrency limit
//	faas_queue_depth{ep}                 invocations waiting for a slot
//	faas_shed_total{ep,prio}             invocations shed by admission control
//
// Call before serving traffic: SetMetrics is not synchronized against
// in-flight invocations. A nil-registry endpoint records nothing and
// pays nothing.
func (ep *Endpoint) SetMetrics(reg *metrics.Registry) {
	ep.obs = nil
	if reg != nil {
		ep.obs = newEpObserver(reg, ep.cfg.Name)
	}
	ep.adm.obs = ep.obs
}

// SetSpans attaches a span store: every invocation arriving under a
// traced context (trace.NewContext — the wire server threads it through
// for traced requests) then records a queue-wait span (time blocked on
// a capacity slot) and an exec span (cold start + handler, attributed
// cold/warm, panic, preemption) as children of the caller's span, and
// the invocation's latency histogram sample carries the trace ID as an
// exemplar. Share the store with the wire server's Spans so one pull
// covers the whole daemon. Call before serving traffic; untraced
// invocations pay one context lookup and nothing else.
func (ep *Endpoint) SetSpans(store *trace.SpanStore) {
	ep.spans = store
}

// Name returns the endpoint name.
func (ep *Endpoint) Name() string { return ep.cfg.Name }

// Running returns the number of slots in use: invocations running or
// just granted a slot, and abandoned handlers that have not returned.
func (ep *Endpoint) Running() int64 {
	ep.adm.mu.Lock()
	defer ep.adm.mu.Unlock()
	return int64(ep.adm.inUse)
}

// Capacity returns the concurrency limit.
func (ep *Endpoint) Capacity() int { return ep.cfg.Capacity }

// ColdStarts returns how many invocations paid the provisioning penalty.
func (ep *Endpoint) ColdStarts() int64 { return ep.coldStarts.Load() }

// WarmHits returns how many invocations reused a warm container.
func (ep *Endpoint) WarmHits() int64 { return ep.warmHits.Load() }

// Invocations returns completed invocation count.
func (ep *Endpoint) Invocations() int64 { return ep.invocations.Load() }

// ShedByPriority returns shed counts indexed low, normal, high (all
// zero without Admission enabled).
func (ep *Endpoint) ShedByPriority() [NumPriorities]int64 {
	ep.adm.mu.Lock()
	defer ep.adm.mu.Unlock()
	return ep.adm.Shed()
}

// SlotLimit returns the current concurrency limit (Capacity without
// Admission enabled).
func (ep *Endpoint) SlotLimit() int { return ep.adm.SlotLimit() }

// QueueDepth returns the number of invocations waiting for a slot.
func (ep *Endpoint) QueueDepth() int { return ep.adm.QueueDepth() }

// SetCordon marks the endpoint cordoned (true) or schedulable again
// (false). A cordoned endpoint finishes its in-flight invocations but
// rejects new ones with ErrCordoned — a retryable verdict, so reliable
// clients fail over instead of losing the request. This is the live
// half of the scenario DSL's cordon/drain events.
func (ep *Endpoint) SetCordon(c bool) { ep.cordoned.Store(c) }

// Cordoned reports whether the endpoint is currently cordoned.
func (ep *Endpoint) Cordoned() bool { return ep.cordoned.Load() }

// Close marks the endpoint closed; in-flight work completes, new
// invocations fail.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.closed = true
}

// acquire takes a warm container from fn's pool if one is fresh, else
// signals a cold start.
func (ep *Endpoint) acquire(fn string) (warm bool, err error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return false, ErrClosed
	}
	p := ep.warm[fn]
	return p != nil && p.Take(time.Since(ep.born).Seconds()), nil
}

// release returns a container to fn's warm pool.
func (ep *Endpoint) release(fn string) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	p := ep.warm[fn]
	if p == nil {
		p = NewWarmPool(ep.cfg.WarmTTL.Seconds(), ep.cfg.Capacity)
		ep.warm[fn] = p
	}
	p.Put(time.Since(ep.born).Seconds())
}

// Invoke executes fn with payload, blocking for a capacity slot. The
// container is returned to the warm pool afterwards.
func (ep *Endpoint) Invoke(fn string, payload []byte) ([]byte, error) {
	return ep.InvokeContext(context.Background(), fn, payload)
}

// InvokeContext executes fn with payload under ctx: the capacity-slot
// wait is bounded by ctx and EndpointConfig.QueueWait, and handler
// execution is bounded by ctx and EndpointConfig.ExecTimeout. Timeout
// errors wrap context.DeadlineExceeded; handler panics are recovered
// into ErrHandlerPanic errors.
func (ep *Endpoint) InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	h, ok := ep.reg.Lookup(fn)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, fn)
	}
	return ep.invoke(ctx, fn, h, payload, 1)
}

// invoke runs h on payload as one unit of work: one slot from the gate,
// one container, one latency sample, counted as n invocations.
func (ep *Endpoint) invoke(ctx context.Context, fn string, h Handler, payload []byte, n int64) ([]byte, error) {
	tc, traced := trace.ContextSpan(ctx)
	if ep.spans == nil {
		traced = false
	}
	obs := ep.obs
	var fm *fnMetrics
	var entered time.Time
	if obs != nil {
		fm = obs.fn(fn)
		entered = time.Now()
		obs.inflight.Add(1)
		defer obs.inflight.Add(-1)
	}
	var qsp *trace.ActiveSpan
	if traced {
		qsp = ep.spans.StartSpan(tc, ep.cfg.Name, "queue "+fn, trace.KindQueue)
	}
	// The slot wait is bounded by ctx and QueueWait. A caller-context
	// expiry wraps the context sentinel; a QueueWait expiry or a shed
	// wraps ErrOverloaded (and only that — overload is the server's
	// verdict, not the caller's deadline).
	var err error
	switch {
	case ctx.Err() != nil:
		err = fmt.Errorf("faas: %q queue wait: %w", fn, ctx.Err())
	case ep.cordoned.Load():
		err = fmt.Errorf("%w: %q", ErrCordoned, fn)
	default:
		err = ep.adm.acquire(ctx, fn, PriorityFromContext(ctx), ep.cfg.QueueWait)
	}
	if err != nil {
		qsp.SetErr(err)
		qsp.End()
		return nil, err
	}
	qsp.End()
	if obs != nil {
		obs.queueWait.Add(time.Since(entered).Seconds())
	}

	var xsp *trace.ActiveSpan
	if traced {
		xsp = ep.spans.StartSpan(tc, ep.cfg.Name, "exec "+fn, trace.KindExec)
	}
	warm, err := ep.acquire(fn)
	if err != nil {
		ep.adm.release()
		xsp.SetErr(err)
		xsp.End()
		return nil, err
	}
	if warm {
		ep.warmHits.Add(1)
		if fm != nil {
			fm.warm.Inc()
		}
		xsp.SetAttr("container", "warm")
	} else {
		ep.coldStarts.Add(1)
		if fm != nil {
			fm.cold.Inc()
		}
		xsp.SetAttr("container", "cold")
		if ep.cfg.ColdStart > 0 {
			time.Sleep(ep.cfg.ColdStart)
		}
	}
	out, err := ep.execute(ctx, fn, h, payload)
	if xsp != nil {
		if err != nil {
			switch {
			case errors.Is(err, ErrHandlerPanic):
				xsp.SetAttr("panic", "true")
			case errors.Is(err, context.Canceled) && ep.cfg.PreemptAbandoned:
				xsp.SetAttr("preempted", "true")
			case errors.Is(err, context.Canceled):
				xsp.SetAttr("cancelled", "true")
			}
			xsp.SetErr(err)
		}
		xsp.End()
	}
	ep.invocations.Add(n)
	if fm != nil {
		fm.invocations.Add(n)
		if traced {
			// The exemplar links this bucket of the latency histogram to
			// the most recent trace that landed in it.
			fm.latency.AddExemplar(time.Since(entered).Seconds(), tc.TraceID)
		} else {
			fm.latency.Add(time.Since(entered).Seconds())
		}
	}
	return out, err
}

// safeCall runs the handler with panic containment: a panicking handler
// yields an ErrHandlerPanic invocation error (and bumps the panic
// counters) instead of unwinding the endpoint.
func (ep *Endpoint) safeCall(fn string, h Handler, payload []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if obs := ep.obs; obs != nil {
				obs.fn(fn).panics.Inc()
			}
			err = fmt.Errorf("%w: %q: %v", ErrHandlerPanic, fn, r)
		}
	}()
	return h(payload)
}

// execute runs the handler and releases the container and capacity slot.
// Without a deadline it runs inline (no extra goroutine on the fast
// path). With one, the handler runs in a goroutine and exactly one side
// — the caller or, if the caller times out first, the abandoned handler
// itself — performs the release, decided by a single atomic claim.
//
// With PreemptAbandoned, a *cancelled* caller frees the capacity slot
// right away; the still-running handler only returns its container to
// the warm pool when it eventually finishes (slotFreed tells it the slot
// side is already done).
func (ep *Endpoint) execute(ctx context.Context, fn string, h Handler, payload []byte) ([]byte, error) {
	if ctx.Done() == nil && ep.cfg.ExecTimeout <= 0 {
		out, err := ep.safeCall(fn, h, payload)
		ep.release(fn)
		ep.adm.release()
		return out, err
	}
	finish := func() { // only here: the goroutine captures it, so it escapes to the heap
		ep.release(fn)
		ep.adm.release()
	}
	var timeout <-chan time.Time
	if ep.cfg.ExecTimeout > 0 {
		t := time.NewTimer(ep.cfg.ExecTimeout)
		defer t.Stop()
		timeout = t.C
	}
	type result struct {
		out []byte
		err error
	}
	done := make(chan result, 1)
	var claimed atomic.Bool   // first claimant controls who releases
	var slotFreed atomic.Bool // set (before the claim) when preemption released the slot
	go func() {
		out, err := ep.safeCall(fn, h, payload)
		if !claimed.CompareAndSwap(false, true) {
			// Caller gave up: the late handler cleans up whatever the
			// abandoning side left behind. slotFreed is ordered before the
			// claim, so losing the CAS guarantees we observe it.
			if slotFreed.Load() {
				ep.release(fn)
			} else {
				finish()
			}
			return
		}
		done <- result{out, err}
	}()
	abandon := func(cause error, preempt bool) ([]byte, error) {
		if preempt {
			// Must be ordered before the claim: the handler goroutine reads
			// slotFreed only after losing the CAS.
			slotFreed.Store(true)
		}
		if !claimed.CompareAndSwap(false, true) {
			slotFreed.Store(false) // lost the race: the handler just finished
			r := <-done
			finish()
			return r.out, r.err
		}
		if preempt {
			if obs := ep.obs; obs != nil {
				obs.fn(fn).preempted.Inc()
			}
			ep.adm.release()
		}
		return nil, cause
	}
	select {
	case r := <-done:
		finish()
		return r.out, r.err
	case <-timeout:
		return abandon(fmt.Errorf("faas: %q deadline exceeded after %v: %w",
			fn, ep.cfg.ExecTimeout, context.DeadlineExceeded), false)
	case <-ctx.Done():
		return abandon(fmt.Errorf("faas: %q: %w", fn, ctx.Err()),
			ep.cfg.PreemptAbandoned && errors.Is(ctx.Err(), context.Canceled))
	}
}

// InvokeBatch executes multiple payloads of the same function as one
// invocation: one slot, one container (so at most one cold start) and
// one latency sample for the whole batch, which ExecTimeout bounds as a
// whole; each payload counts as one invocation. Results align with
// payloads; the first handler error is returned after all payloads run.
// A batch abandoned at ExecTimeout returns no results, since its handler
// may still be writing them.
func (ep *Endpoint) InvokeBatch(fn string, payloads [][]byte) ([][]byte, error) {
	h, ok := ep.reg.Lookup(fn)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunction, fn)
	}
	done := make(chan [][]byte, 1) // the results, sent once all are written
	batch := func([]byte) ([]byte, error) {
		outs := make([][]byte, len(payloads))
		var firstErr error
		for i, p := range payloads {
			var err error
			if outs[i], err = ep.safeCall(fn, h, p); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		done <- outs
		return nil, firstErr
	}
	_, err := ep.invoke(context.Background(), fn, batch, nil, int64(len(payloads)))
	select {
	case outs := <-done:
		return outs, err
	default: // never ran, or abandoned while running
		return nil, err
	}
}
