package faas

// Admission: the endpoint's one slot gate. Every invocation takes a
// capacity slot from the admitter, and every caller waiting for one
// waits in its queue, so QueueDepth and faas_queue_depth count real
// waiters on every endpoint. With AdmissionConfig.Enabled false it is a
// plain gate; enabled, it bounds the queue adaptively (AIMD on the
// queue-wait EWMA that faas_queue_wait_seconds exports), gives the
// priority classes of WithPriority graduated shares of that bound so low
// priority sheds first, sheds an over-limit arrival at once with a
// Retry-After hint, and sizes the slot pool elastically (the policy
// internal/autoscale applies to simulated fleets). The decisions live in
// Gate, a core that reads no clock and is told each queue wait: the
// admitter drives it in wall time, and the simulator's engine in kernel
// time (core.Options.Admission), so both backends shed by one rule.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Priority is a request's importance class for admission control and
// load shedding. The zero value is PriorityNormal, so unprioritized
// callers (and legacy wire peers that predate the field) land in the
// middle class rather than the one shed first.
type Priority int

// The three priority classes. Under overload, lower classes are shed
// first: each class has a graduated share of the (adaptive) queue
// bound, and an arriving higher-priority request may evict a queued
// lower-priority one.
const (
	PriorityLow    Priority = -1
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 1
)

// NumPriorities is the number of distinct priority classes.
const NumPriorities = 3

// String returns "low", "normal", or "high" (out-of-range values clamp).
func (p Priority) String() string {
	return [NumPriorities]string{"low", "normal", "high"}[p.Class()]
}

// Class maps p to its class index in [0, NumPriorities): 0 low, 1
// normal, 2 high. Out-of-range values clamp to the nearest class.
func (p Priority) Class() int {
	return int(min(max(p, PriorityLow), PriorityHigh) - PriorityLow)
}

// classLimit is the graduated watermark of class c under the queue
// bound: the lowest class may use 1/NumPriorities of the bound, the
// highest all of it, and every class at least 1. Under overload the
// cheap traffic hits its wall first while high-priority requests still
// find headroom.
func classLimit(bound, c int) int {
	return max(1, bound*(c+1)/NumPriorities)
}

type priorityKey struct{}

// WithPriority tags ctx with a request priority. The endpoint's
// admission controller (and the wire client, which copies the tag onto
// outgoing requests) reads it back with PriorityFromContext.
func WithPriority(ctx context.Context, p Priority) context.Context {
	return context.WithValue(ctx, priorityKey{}, p)
}

// PriorityFromContext returns the priority carried by ctx, or
// PriorityNormal when none is set.
func PriorityFromContext(ctx context.Context) Priority {
	if p, ok := ctx.Value(priorityKey{}).(Priority); ok {
		return p
	}
	return PriorityNormal
}

// ErrCordoned is returned for new invocations while the endpoint is
// cordoned (SetCordon): in-flight work finishes, new work is rejected
// retryably so clients fail over to other endpoints.
var ErrCordoned = errors.New("faas: endpoint cordoned")

// OverloadError is the shed verdict of the admission controller: the
// request was rejected (or evicted from the wait queue) without any
// work being started. It unwraps to ErrOverloaded and carries the
// backoff hint the wire layer forwards to clients as
// Response.RetryAfterMS.
type OverloadError struct {
	// Fn is the function whose invocation was shed.
	Fn string
	// Priority is the shed request's class.
	Priority Priority
	// RetryAfter is the server's backoff hint: roughly the observed
	// queue-wait EWMA, i.e. how long until a retry is likely to find
	// room. Always > 0.
	RetryAfter time.Duration
	// Evicted marks a request that was queued and then displaced by a
	// higher-priority arrival (as opposed to shed on arrival).
	Evicted bool
}

// Error renders the shed/evicted verdict with its priority class and
// Retry-After hint.
func (e *OverloadError) Error() string {
	verb := "shed"
	if e.Evicted {
		verb = "evicted"
	}
	return fmt.Sprintf("%v: %q %s (priority %s, retry after %v)",
		ErrOverloaded, e.Fn, verb, e.Priority, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// AdmissionConfig enables and tunes per-endpoint admission control.
// The zero value (Enabled false) is the plain gate: Capacity fixed slots
// and one unbounded FIFO queue, which priority does not reorder; a
// waiter whose QueueWait expires gets an error wrapping ErrOverloaded,
// with no Retry-After hint and not counted as a shed. The other fields
// are then ignored.
type AdmissionConfig struct {
	// Enabled turns on the queue bound, priority classes, shedding and
	// elastic sizing.
	Enabled bool
	// MaxQueue is the hard bound on queued (admitted-but-waiting)
	// invocations across all priority classes; the effective bound
	// adapts below it via AIMD on observed queue wait
	// (0 = 4 × Capacity).
	MaxQueue int
	// TargetQueueWait is the queue-wait the AIMD loop steers toward:
	// above it the effective queue bound halves, well below it the
	// bound creeps back up (0 = 20ms).
	TargetQueueWait time.Duration
	// MinSlots is the elastic worker-pool floor the endpoint shrinks to
	// when idle; it grows back toward Capacity once queuePerSlot
	// requests wait per slot (0 = max(1, Capacity/4)).
	MinSlots int
	// RetryAfterFloor is the minimum Retry-After hint attached to shed
	// responses (0 = 5ms).
	RetryAfterFloor time.Duration
}

// Waiter states: in its class queue, granted a slot, or displaced by a
// higher-priority arrival. abandon uses the state to resolve a caller
// that gave up against a grant or eviction it raced with.
const (
	wWaiting = iota
	wGranted
	wEvicted
)

// Waiter is one arrival queued at a Gate. Val is the driver's handle on
// it: the live admitter's wake-up channel, the simulator's job.
type Waiter[T any] struct {
	Val   T
	class int
	state int
}

// aimd tuning: adjust the queue bound every aimdEvery admissions (so
// one slow grant doesn't slam the bound), grow the pool once
// queuePerSlot requests wait per slot (autoscale's QueuePerNode policy,
// applied to container slots), shrink it after shrinkAfterIdle
// consecutive releases that found an empty queue.
const (
	aimdEvery       = 8
	queuePerSlot    = 2
	shrinkAfterIdle = 16
	ewmaAlpha       = 0.2
)

// Gate is the admission gate's clock-free core: the slot pool, one FIFO
// queue per priority class, the AIMD queue bound and its wait EWMA, the
// elastic sizing counters and the shed counts. It is told each grant's
// queue wait and never reads a clock, blocks or wakes anyone: a decision
// returns the waiter to wake. A freed slot passes straight to the next
// waiter (highest class first, FIFO within a class), so inUse never dips
// while work is queued. With cfg.Enabled false it is the plain gate (see
// AdmissionConfig). A Gate is not safe for concurrent use.
type Gate[T any] struct {
	enabled  bool
	capacity int
	floor    int           // elastic floor: a plain gate's is capacity
	maxQueue int           // hard queue bound
	target   float64       // the queue wait AIMD steers toward, seconds
	raFloor  time.Duration // least Retry-After hint
	slots    int           // concurrency limit, in [floor, capacity]
	inUse    int
	queues   [NumPriorities][]*Waiter[T]
	queued   int
	qLimit   int     // adaptive queue bound, in [NumPriorities, maxQueue]
	qwEWMA   float64 // observed queue-wait EWMA, seconds
	obsN     int     // admissions since the last AIMD adjustment
	idleN    int     // consecutive empty-queue releases (shrink signal)
	shed     [NumPriorities]int64
}

// NewGate returns a gate with capacity slots, all of them open, and
// cfg's zero fields at their defaults.
func NewGate[T any](cfg AdmissionConfig, capacity int) *Gate[T] {
	g := &Gate[T]{enabled: cfg.Enabled, capacity: capacity, floor: capacity, slots: capacity,
		maxQueue: max(4*capacity, NumPriorities),
		target:   (20 * time.Millisecond).Seconds(), raFloor: 5 * time.Millisecond}
	if cfg.MaxQueue > 0 {
		g.maxQueue = max(cfg.MaxQueue, NumPriorities)
	}
	if cfg.TargetQueueWait > 0 {
		g.target = cfg.TargetQueueWait.Seconds()
	}
	if cfg.RetryAfterFloor > 0 {
		g.raFloor = cfg.RetryAfterFloor
	}
	if cfg.Enabled {
		g.floor = max(1, capacity/4)
		if cfg.MinSlots > 0 {
			g.floor = min(cfg.MinSlots, capacity)
		}
	}
	g.qLimit = g.maxQueue
	return g
}

// Arrive decides one arrival of priority p. admitted means it holds a
// slot. Otherwise w is its queue entry, which a later Release hands the
// slot to, or nil when it was shed. evicted, when not nil, is a queued
// lower-class waiter displaced to make room: it is counted as shed and
// will never be granted.
func (g *Gate[T]) Arrive(p Priority, val T) (admitted bool, w, evicted *Waiter[T]) {
	cls := p.Class()
	if !g.enabled {
		cls = 0 // a plain gate keeps one FIFO queue
	}
	// Elastic growth: a full pool with enough backlog per slot and
	// headroom under the hard capacity.
	if g.inUse == g.slots && g.slots < g.capacity && g.queued >= queuePerSlot*g.slots {
		g.slots++
		g.idleN = 0
	}
	if g.inUse < g.slots {
		g.inUse++
		g.Observe(0)
		return true, nil, nil
	}
	if g.enabled && g.queued >= classLimit(g.qLimit, cls) {
		if evicted = g.evictLower(cls); evicted == nil {
			g.shed[cls]++
			return false, nil, nil
		}
	}
	w = &Waiter[T]{Val: val, class: cls}
	g.queues[cls] = append(g.queues[cls], w)
	g.queued++
	return false, w, evicted
}

// Release frees one slot and returns the waiter it passes to, or nil
// when none waits: then inUse drops, and sustained idleness shrinks the
// elastic pool toward its floor.
func (g *Gate[T]) Release() *Waiter[T] {
	next := g.grant()
	switch g.idleN++; {
	case g.queued > 0 || g.inUse >= g.slots:
		g.idleN = 0
	case g.idleN >= shrinkAfterIdle && g.slots > g.floor:
		g.slots--
		g.idleN = 0
	}
	return next
}

// Shed returns each class's sheds, evictions included.
func (g *Gate[T]) Shed() [NumPriorities]int64 { return g.shed }

// grant passes a freed slot to the next waiter, or drops inUse.
func (g *Gate[T]) grant() *Waiter[T] {
	for cls := NumPriorities - 1; cls >= 0; cls-- {
		if q := g.queues[cls]; len(q) > 0 {
			g.queues[cls], g.queued = q[1:], g.queued-1
			q[0].state = wGranted
			return q[0]
		}
	}
	g.inUse--
	return nil
}

// abandon resolves w, whose caller gave up waiting, against a grant or
// eviction it raced with. A raced grant passes the slot on, to the
// waiter it returns if one waits. A waiter still queued leaves the
// queue, and counts as shed when shed is set. An evicted one was
// already counted.
func (g *Gate[T]) abandon(w *Waiter[T], shed bool) *Waiter[T] {
	switch w.state {
	case wGranted:
		return g.grant()
	case wWaiting:
		g.queues[w.class] = slices.DeleteFunc(g.queues[w.class], func(x *Waiter[T]) bool { return x == w })
		g.queued--
		if shed {
			g.shed[w.class]++
		}
	}
	return nil
}

// evictLower displaces the newest waiter of the lowest class below cls,
// counted as shed, or returns nil when no lower-class waiter exists.
func (g *Gate[T]) evictLower(cls int) *Waiter[T] {
	for vc := 0; vc < cls; vc++ {
		if q := g.queues[vc]; len(q) > 0 {
			v := q[len(q)-1]
			g.queues[vc], g.queued = q[:len(q)-1], g.queued-1
			v.state = wEvicted
			g.shed[vc]++
			return v
		}
	}
	return nil
}

// Observe feeds the queue wait of one granted waiter, as its driver
// measured it, into the EWMA (admissions at once count a wait of 0) and,
// every aimdEvery admissions, adjusts the effective queue bound: halve
// when waits exceed the target (shed earlier), creep up by one when
// waits are comfortably below it.
func (g *Gate[T]) Observe(d time.Duration) {
	if !g.enabled {
		return // a plain gate's queue bound is not used
	}
	g.qwEWMA = (1-ewmaAlpha)*g.qwEWMA + ewmaAlpha*d.Seconds()
	if g.obsN++; g.obsN < aimdEvery {
		return
	}
	g.obsN = 0
	switch {
	case g.qwEWMA > g.target:
		g.qLimit = max(NumPriorities, g.qLimit/2)
	case g.qwEWMA < g.target/2 && g.qLimit < g.maxQueue:
		g.qLimit++
	}
}

// retryAfter derives the backoff hint from the queue-wait EWMA: a retry
// sooner than the current typical wait would just re-queue.
func (g *Gate[T]) retryAfter() time.Duration {
	return max(time.Duration(g.qwEWMA*float64(time.Second)), g.raFloor)
}

// liveWait is a live caller's handle on its queue entry.
type liveWait struct {
	fn    string
	ready chan error // buffered 1: nil = slot granted, *OverloadError = evicted
	enq   time.Time
}

// admitter is the endpoint's slot gate: the Gate core under mu, with
// what the core leaves to its driver — a channel each queued caller
// blocks on, the clock that times its wait, the QueueWait timer, and the
// gauges and shed counters of SetMetrics.
type admitter struct {
	*Gate[liveWait]
	obs       *epObserver // set by SetMetrics before traffic; nil = unobserved
	published [NumPriorities]int64
	mu        sync.Mutex
}

func newAdmitter(cfg AdmissionConfig, capacity int) *admitter {
	return &admitter{Gate: NewGate[liveWait](cfg, capacity)}
}

// acquire admits, queues, or sheds one invocation. It returns nil once
// a slot is held, an error wrapping ErrOverloaded when shed (immediately
// on arrival, by eviction, or on queue-wait expiry; an *OverloadError
// unless the gate is plain), or a context error when the caller gave up
// first.
func (a *admitter) acquire(ctx context.Context, fn string, p Priority, queueWait time.Duration) error {
	a.mu.Lock()
	admitted, w, evicted := a.Arrive(p, liveWait{fn: fn})
	if evicted != nil {
		evicted.Val.ready <- &OverloadError{Fn: evicted.Val.fn, Priority: Priority(evicted.class) + PriorityLow,
			RetryAfter: a.retryAfter(), Evicted: true}
	}
	var err error
	if w != nil {
		w.Val.ready, w.Val.enq = make(chan error, 1), time.Now()
	} else if !admitted {
		err = &OverloadError{Fn: fn, Priority: p, RetryAfter: a.retryAfter()}
	}
	a.publishLocked()
	a.mu.Unlock()
	if w == nil {
		return err
	}

	var timeout <-chan time.Time
	if queueWait > 0 {
		t := time.NewTimer(queueWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case err := <-w.Val.ready:
		if err == nil {
			a.mu.Lock()
			a.Observe(time.Since(w.Val.enq))
			a.mu.Unlock()
		}
		return err
	case <-ctx.Done():
		return a.giveUp(w, fmt.Errorf("faas: %q queue wait: %w", fn, ctx.Err()))
	case <-timeout:
		// Queue-wait expiry is the server's overload verdict, not the
		// caller's deadline: it deliberately wraps no context sentinel.
		if !a.enabled {
			return a.giveUp(w, fmt.Errorf("%w: %q queue wait exceeded %v", ErrOverloaded, fn, queueWait))
		}
		// Under admission control it is a shed with a Retry-After hint.
		a.mu.Lock()
		ra := a.retryAfter()
		a.mu.Unlock()
		return a.giveUp(w, &OverloadError{Fn: fn, Priority: p, RetryAfter: ra})
	}
}

// giveUp resolves a waiter whose caller gave up (context or queue wait)
// against a concurrent grant or eviction, and returns cause: a raced
// grant is handed onward so the slot is never leaked.
func (a *admitter) giveUp(w *Waiter[liveWait], cause error) error {
	var oe *OverloadError
	a.mu.Lock()
	defer a.mu.Unlock()
	a.wake(a.abandon(w, errors.As(cause, &oe)))
	return cause
}

// release frees one slot: the next waiter, if any, inherits it.
func (a *admitter) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.wake(a.Release())
}

// wake tells w, if any, that it holds a slot now, and publishes the
// gate's state.
func (a *admitter) wake(w *Waiter[liveWait]) {
	if w != nil {
		w.Val.ready <- nil
	}
	a.publishLocked()
}

// publishLocked brings the SetMetrics gauges and shed counters up to
// the core's state.
func (a *admitter) publishLocked() {
	if o := a.obs; o != nil {
		o.slots.Set(float64(a.slots))
		o.queueDepth.Set(float64(a.queued))
		for cls, n := range a.shed {
			o.shed[cls].Add(n - a.published[cls])
			a.published[cls] = n
		}
	}
}

// SlotLimit returns the current concurrency limit.
func (a *admitter) SlotLimit() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.slots
}

// QueueDepth returns the number of queued (admitted, waiting) requests.
func (a *admitter) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}
