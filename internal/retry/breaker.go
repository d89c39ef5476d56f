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
	// Now is the clock (nil means time.Now). Inject in tests.
	Now func() time.Time
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

func (c BreakerConfig) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Breaker is a circuit breaker: closed → (failures) → open → (cooldown)
// → half-open → (probe success) → closed, or → (probe failure) → open.
// Callers ask Allow before attempting and report the outcome with
// Success/Failure. All methods are safe for concurrent use.
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

// State returns the current state, applying any due open → half-open
// transition first.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// Allow reports whether a call may proceed now. In half-open it admits
// one probe at a time; every admitted call must be concluded with
// Success, Failure or Cancel.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// Success reports a completed call that succeeded.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.consecutive = 0
	case HalfOpen:
		b.probing = false
		b.transition(Closed)
	}
}

// Cancel reports an admitted call that was abandoned without an outcome
// — typically a hedged request cancelled because its sibling arm won the
// race. The endpoint is not at fault, so nothing is recorded against the
// failure counters; in half-open the admitted probe slot is returned so
// an abandoned hedge cannot wedge the breaker's recovery.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// Failure reports a completed call that failed.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.consecutive++
		if b.consecutive >= b.cfg.failureThreshold() {
			b.trip()
		}
	case HalfOpen:
		b.trip() // the probe failed: back to open, cooldown restarts
	}
}

// trip opens the breaker and resets the counting state.
func (b *Breaker) trip() {
	b.openedAt = b.cfg.now()
	b.consecutive = 0
	b.probing = false
	b.transition(Open)
}

// maybeHalfOpen moves open → half-open once the cooldown has elapsed.
// Callers hold b.mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == Open && b.cfg.now().Sub(b.openedAt) >= b.cfg.cooldown() {
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
