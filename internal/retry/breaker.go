package retry

import (
	"fmt"
	"sync"
	"time"
)

// State is a circuit breaker's position.
type State int

// Breaker states. The numeric values are stable — they are exported as a
// gauge (wire_breaker_state) and dashboards key on them.
const (
	// Closed passes traffic and counts failures.
	Closed State = 0
	// Open rejects traffic until the cooldown elapses.
	Open State = 1
	// HalfOpen admits one probe at a time to test recovery.
	HalfOpen State = 2
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Breaker defaults.
const (
	DefaultFailureThreshold = 5
	DefaultCooldown         = time.Second
)

// BreakerConfig parameterizes a Breaker. The zero value is usable: trip
// after DefaultFailureThreshold consecutive failures, cool down for
// DefaultCooldown, re-close after one probe success.
type BreakerConfig struct {
	// FailureThreshold trips the breaker after this many consecutive
	// failures (<= 0 means DefaultFailureThreshold).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (<= 0 means DefaultCooldown).
	Cooldown time.Duration
	// OnStateChange, when set, runs on every transition with the breaker
	// lock held — keep it fast and do not call back into the breaker.
	OnStateChange func(from, to State)
}

func (c BreakerConfig) failureThreshold() int {
	if c.FailureThreshold <= 0 {
		return DefaultFailureThreshold
	}
	return c.FailureThreshold
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return DefaultCooldown
	}
	return c.Cooldown
}

// Ticket is what Allow hands an admitted call; the call's outcome report
// passes it back. Only the half-open probe's ticket can move a half-open
// breaker, so a call admitted before the breaker last opened cannot
// close it or free the probe slot when it reports late.
type Ticket struct {
	probe bool
}

// Breaker is a circuit breaker: closed → (failures) → open → (cooldown)
// → half-open → (probe success) → closed, or → (probe failure) → open.
// Callers ask Allow before attempting and report the outcome with
// Success, Failure or Cancel, passing back the Ticket Allow gave. It
// reads no clock: the methods that need the time take it from the
// caller. All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       State
	consecutive int       // consecutive failures while closed
	openedAt    time.Time // when the breaker last opened
	probing     bool      // the half-open probe is admitted and awaits its outcome
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg}
}

// State returns the state at now, applying any due open → half-open
// transition first.
func (b *Breaker) State(now time.Time) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen(now)
	return b.state
}

// Allow reports whether a call may proceed at now. In half-open it
// admits one probe at a time; every admitted call must be concluded with
// Success, Failure or Cancel, given the returned Ticket.
func (b *Breaker) Allow(now time.Time) (Ticket, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen(now)
	switch b.state {
	case Closed:
		return Ticket{}, true
	case HalfOpen:
		if b.probing {
			return Ticket{}, false
		}
		b.probing = true
		return Ticket{probe: true}, true
	default:
		return Ticket{}, false
	}
}

// Success reports a completed call that succeeded.
func (b *Breaker) Success(t Ticket) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.state == Closed:
		b.consecutive = 0
	case b.state == HalfOpen && t.probe:
		b.probing = false
		b.transition(Closed)
	}
}

// Cancel reports an admitted call that was abandoned without an outcome
// — typically a hedged request cancelled because its sibling arm won the
// race. The endpoint is not at fault, so nothing is recorded against the
// failure counters; a cancelled half-open probe returns its slot so an
// abandoned hedge cannot wedge the breaker's recovery.
func (b *Breaker) Cancel(t Ticket) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen && t.probe {
		b.probing = false
	}
}

// Failure reports a call that failed at now.
func (b *Breaker) Failure(now time.Time, t Ticket) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.state == Closed:
		b.consecutive++
		if b.consecutive >= b.cfg.failureThreshold() {
			b.trip(now)
		}
	case b.state == HalfOpen && t.probe:
		b.trip(now) // the probe failed: back to open, cooldown restarts
	}
}

// trip opens the breaker at now and resets the counting state.
func (b *Breaker) trip(now time.Time) {
	b.openedAt = now
	b.consecutive = 0
	b.probing = false
	b.transition(Open)
}

// maybeHalfOpen moves open → half-open once the cooldown has elapsed at
// now. Callers hold b.mu.
func (b *Breaker) maybeHalfOpen(now time.Time) {
	if b.state == Open && now.Sub(b.openedAt) >= b.cfg.cooldown() {
		b.transition(HalfOpen)
	}
}

// transition sets the state and fires the change hook. Callers hold b.mu.
func (b *Breaker) transition(to State) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, to)
	}
}
