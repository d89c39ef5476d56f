package faas

// Admission: the endpoint's one slot gate. Every invocation takes a
// capacity slot from the admitter, and every caller waiting for one
// waits in the admitter's queue, so QueueDepth and the faas_queue_depth
// gauge count real waiters on every endpoint. With
// AdmissionConfig.Enabled false the admitter is a plain gate (see
// AdmissionConfig); enabled, it instead:
//
//   - bounds the wait queue (adaptively: AIMD on the observed
//     queue-wait EWMA, the same signal faas_queue_wait_seconds exports);
//   - classifies requests into priority classes (carried by context,
//     see WithPriority) with graduated queue watermarks (ClassLimit), so
//     low-priority traffic sheds first and high-priority traffic keeps
//     headroom;
//   - sheds immediately — an over-limit arrival is rejected in
//     microseconds with an OverloadError carrying a Retry-After hint
//     derived from the observed queue wait, instead of blocking for
//     QueueWait and then failing;
//   - sizes the worker pool elastically between a floor and Capacity,
//     growing on backlog and shrinking after sustained idleness, the
//     policy internal/autoscale applies to simulated node fleets.
//
// The simulator's engine sheds stream jobs at the same ClassLimit
// watermarks (core.ReliableOptions.Admission), so sim and live overload
// experiments stay comparable.

import (
	"context"
	"errors"
	"fmt"
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

// ClassLimit is the graduated watermark of class c under bound: the
// lowest class may use 1/NumPriorities of the bound, the highest all of
// it, and every class at least 1. Under overload the cheap traffic hits
// its wall first while high-priority requests still find headroom. The
// admitter applies it to its adaptive queue bound, and the simulator's
// engine to its bound on outstanding stream jobs.
func ClassLimit(bound, c int) int {
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

func (c AdmissionConfig) maxQueue(capacity int) int {
	if c.MaxQueue > 0 {
		return max(c.MaxQueue, NumPriorities)
	}
	return max(4*capacity, NumPriorities)
}

func (c AdmissionConfig) targetQueueWait() time.Duration {
	if c.TargetQueueWait > 0 {
		return c.TargetQueueWait
	}
	return 20 * time.Millisecond
}

// minSlots is the pool's floor. A plain gate's floor is Capacity, so it
// neither shrinks nor grows.
func (c AdmissionConfig) minSlots(capacity int) int {
	switch {
	case !c.Enabled:
		return capacity
	case c.MinSlots > 0:
		return min(c.MinSlots, capacity)
	}
	return max(1, capacity/4)
}

func (c AdmissionConfig) retryAfterFloor() time.Duration {
	if c.RetryAfterFloor > 0 {
		return c.RetryAfterFloor
	}
	return 5 * time.Millisecond
}

// waiter states (under admitter.mu). A waiter is in exactly one of:
// its queue (wWaiting), granted a slot (wGranted), or displaced
// by a higher-priority arrival (wEvicted). The abandon path uses the
// state to resolve races between grant/eviction and the waiter's own
// timeout or cancellation.
const (
	wWaiting = iota
	wGranted
	wEvicted
)

type waiter struct {
	fn    string
	class int
	enq   time.Time
	ready chan error // buffered 1: nil = slot granted, *OverloadError = evicted
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

// admitter is the endpoint's slot gate: a wait queue in front of a slot
// pool, priority-classed, adaptively bounded and elastic when
// cfg.Enabled. All state is guarded by mu; grants hand the slot directly
// to the next waiter (highest class first, FIFO within a class) so inUse
// never dips while work is queued.
type admitter struct {
	cfg      AdmissionConfig
	capacity int
	obs      *epObserver // set by SetMetrics before traffic; nil = unobserved

	mu     sync.Mutex
	slots  int // concurrency limit, in [minSlots, capacity]
	inUse  int
	queues [NumPriorities][]*waiter
	queued int
	qLimit int     // adaptive queue bound, in [NumPriorities, maxQueue]
	qwEWMA float64 // observed queue-wait EWMA, seconds
	obsN   int     // admissions since the last AIMD adjustment
	idleN  int     // consecutive empty-queue releases (shrink signal)
	shed   [NumPriorities]int64
}

func newAdmitter(cfg AdmissionConfig, capacity int) *admitter {
	return &admitter{
		cfg:      cfg,
		capacity: capacity,
		slots:    capacity, // start full; idleness shrinks toward the floor
		qLimit:   cfg.maxQueue(capacity),
	}
}

// acquire admits, queues, or sheds one invocation. It returns nil once
// a slot is held, an error wrapping ErrOverloaded when shed (immediately
// on arrival, by eviction, or on queue-wait expiry; an *OverloadError
// unless the gate is plain), or a context error when the caller gave up
// first.
func (a *admitter) acquire(ctx context.Context, fn string, p Priority, queueWait time.Duration) error {
	cls := p.Class()
	if !a.cfg.Enabled {
		cls = 0 // a plain gate keeps one FIFO queue
	}
	a.mu.Lock()
	// Elastic growth: a full pool with enough backlog per slot and
	// headroom under the hard capacity.
	if a.inUse == a.slots && a.slots < a.capacity && a.queued >= queuePerSlot*a.slots {
		a.slots++
		a.idleN = 0
	}
	if a.inUse < a.slots {
		a.inUse++
		a.observeWaitLocked(0)
		a.updateGaugesLocked()
		a.mu.Unlock()
		return nil
	}
	if a.cfg.Enabled && a.queued >= ClassLimit(a.qLimit, cls) && !a.evictLowerLocked(cls) {
		err := &OverloadError{Fn: fn, Priority: p, RetryAfter: a.retryAfterLocked()}
		a.shedLocked(cls)
		a.mu.Unlock()
		return err
	}
	w := &waiter{fn: fn, class: cls, enq: time.Now(), ready: make(chan error, 1), state: wWaiting}
	a.queues[cls] = append(a.queues[cls], w)
	a.queued++
	a.updateGaugesLocked()
	a.mu.Unlock()

	var timeout <-chan time.Time
	if queueWait > 0 {
		t := time.NewTimer(queueWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case err := <-w.ready:
		if err == nil {
			a.observeWait(time.Since(w.enq))
		}
		return err
	case <-ctx.Done():
		return a.abandon(w, fmt.Errorf("faas: %q queue wait: %w", fn, ctx.Err()))
	case <-timeout:
		// Queue-wait expiry is the server's overload verdict, not the
		// caller's deadline: it deliberately wraps no context sentinel.
		if !a.cfg.Enabled {
			return a.abandon(w, fmt.Errorf("%w: %q queue wait exceeded %v", ErrOverloaded, fn, queueWait))
		}
		// Under admission control it is a shed with a Retry-After hint.
		a.mu.Lock()
		ra := a.retryAfterLocked()
		a.mu.Unlock()
		return a.abandon(w, &OverloadError{Fn: fn, Priority: p, RetryAfter: ra})
	}
}

// abandon resolves a waiter whose caller gave up (context or queue
// wait) against a concurrent grant or eviction, all under mu: a raced
// grant is handed onward so the slot is never leaked; a raced eviction
// was already counted by the evictor.
func (a *admitter) abandon(w *waiter, cause error) error {
	a.mu.Lock()
	switch w.state {
	case wGranted:
		a.releaseLocked()
	case wWaiting:
		a.removeLocked(w)
		var oe *OverloadError
		if errors.As(cause, &oe) {
			a.shedLocked(w.class)
		}
	case wEvicted:
		// evictLowerLocked already removed and counted it
	}
	a.updateGaugesLocked()
	a.mu.Unlock()
	return cause
}

// evictLowerLocked displaces the most recently queued waiter of the
// lowest class strictly below cls, making room for a higher-priority
// arrival. Returns false when no lower-class waiter exists.
func (a *admitter) evictLowerLocked(cls int) bool {
	for vc := 0; vc < cls; vc++ {
		q := a.queues[vc]
		if len(q) == 0 {
			continue
		}
		v := q[len(q)-1]
		a.queues[vc] = q[:len(q)-1]
		a.queued--
		v.state = wEvicted
		a.shedLocked(vc)
		v.ready <- &OverloadError{
			Fn: v.fn, Priority: Priority(vc) + PriorityLow,
			RetryAfter: a.retryAfterLocked(), Evicted: true,
		}
		return true
	}
	return false
}

// removeLocked deletes w from its class queue (it may have already
// been popped by a racing grant — then state != wWaiting and callers
// never get here).
func (a *admitter) removeLocked(w *waiter) {
	q := a.queues[w.class]
	for i, x := range q {
		if x == w {
			a.queues[w.class] = append(q[:i], q[i+1:]...)
			a.queued--
			return
		}
	}
}

// release frees one slot: the next waiter (highest class first, FIFO
// within a class) inherits it directly, else inUse drops and sustained
// idleness shrinks the elastic pool toward the floor.
func (a *admitter) release() {
	a.mu.Lock()
	a.releaseLocked()
	if a.queued == 0 && a.inUse < a.slots {
		a.idleN++
		if a.idleN >= shrinkAfterIdle && a.slots > a.cfg.minSlots(a.capacity) {
			a.slots--
			a.idleN = 0
		}
	} else {
		a.idleN = 0
	}
	a.updateGaugesLocked()
	a.mu.Unlock()
}

func (a *admitter) releaseLocked() {
	for cls := NumPriorities - 1; cls >= 0; cls-- {
		q := a.queues[cls]
		if len(q) == 0 {
			continue
		}
		w := q[0]
		a.queues[cls] = q[1:]
		a.queued--
		w.state = wGranted
		w.ready <- nil // slot transfers; inUse unchanged
		return
	}
	a.inUse--
}

// observeWait feeds one admission's queue wait into the EWMA and, every
// aimdEvery admissions, adjusts the effective queue bound: halve when
// waits exceed the target (shed earlier), creep up by one when waits
// are comfortably below it. This reuses the exact signal the endpoint
// already exports as faas_queue_wait_seconds.
func (a *admitter) observeWait(d time.Duration) {
	a.mu.Lock()
	a.observeWaitLocked(d)
	a.mu.Unlock()
}

func (a *admitter) observeWaitLocked(d time.Duration) {
	if !a.cfg.Enabled {
		return // a plain gate's queue bound is not used
	}
	a.qwEWMA = (1-ewmaAlpha)*a.qwEWMA + ewmaAlpha*d.Seconds()
	a.obsN++
	if a.obsN < aimdEvery {
		return
	}
	a.obsN = 0
	target := a.cfg.targetQueueWait().Seconds()
	switch {
	case a.qwEWMA > target:
		a.qLimit = max(NumPriorities, a.qLimit/2)
	case a.qwEWMA < target/2 && a.qLimit < a.cfg.maxQueue(a.capacity):
		a.qLimit++
	}
}

// retryAfterLocked derives the backoff hint from the queue-wait EWMA:
// a retry sooner than the current typical wait would just re-queue.
func (a *admitter) retryAfterLocked() time.Duration {
	ra := time.Duration(a.qwEWMA * float64(time.Second))
	return max(ra, a.cfg.retryAfterFloor())
}

func (a *admitter) shedLocked(cls int) {
	a.shed[cls]++
	if o := a.obs; o != nil {
		o.shed[cls].Inc()
	}
}

func (a *admitter) updateGaugesLocked() {
	if o := a.obs; o != nil {
		o.slots.Set(float64(a.slots))
		o.queueDepth.Set(float64(a.queued))
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
