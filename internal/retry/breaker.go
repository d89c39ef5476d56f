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
	// HalfOpen admits a limited number of probes to test recovery.
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
	DefaultWindow           = 20
	DefaultCooldown         = time.Second
	DefaultHalfOpenProbes   = 1
)

// BreakerConfig parameterizes a Breaker. The zero value is usable: trip
// after DefaultFailureThreshold consecutive failures, cool down for
// DefaultCooldown, re-close after DefaultHalfOpenProbes probe successes.
type BreakerConfig struct {
	// FailureThreshold trips the breaker after this many consecutive
	// failures (<= 0 means DefaultFailureThreshold).
	FailureThreshold int
	// FailureRate additionally trips the breaker when the error rate over
	// the last Window outcomes exceeds it (0 disables rate tripping).
	FailureRate float64
	// Window is the rolling outcome window for FailureRate (<= 0 means
	// DefaultWindow). Rate tripping only engages once the window is full.
	Window int
	// Cooldown is how long the breaker stays open before admitting
	// half-open probes (<= 0 means DefaultCooldown).
	Cooldown time.Duration
	// HalfOpenProbes is how many consecutive probe successes re-close the
	// breaker (<= 0 means DefaultHalfOpenProbes).
	HalfOpenProbes int
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

func (c BreakerConfig) window() int {
	if c.Window <= 0 {
		return DefaultWindow
	}
	return c.Window
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return DefaultCooldown
	}
	return c.Cooldown
}

func (c BreakerConfig) halfOpenProbes() int {
	if c.HalfOpenProbes <= 0 {
		return DefaultHalfOpenProbes
	}
	return c.HalfOpenProbes
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
	window      []bool    // rolling outcomes, true = failure
	windowAt    int       // next write position
	windowFull  bool      // window has wrapped at least once
	openedAt    time.Time // when the breaker last opened
	probes      int       // successes so far in half-open
	inFlight    int       // admitted half-open probes awaiting outcome
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg, window: make([]bool, cfg.window())}
}

// State returns the current state, applying any due open → half-open
// transition first.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// Allow reports whether a call may proceed now. In half-open it admits at
// most HalfOpenProbes concurrent probes; every admitted call must be
// concluded with Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.inFlight < b.cfg.halfOpenProbes() {
			b.inFlight++
			return true
		}
		return false
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
		b.record(false)
	case HalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		b.probes++
		if b.probes >= b.cfg.halfOpenProbes() {
			b.transition(Closed)
		}
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
	if b.state == HalfOpen && b.inFlight > 0 {
		b.inFlight--
	}
}

// Failure reports a completed call that failed.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.consecutive++
		b.record(true)
		if b.consecutive >= b.cfg.failureThreshold() || b.rateTripped() {
			b.trip()
		}
	case HalfOpen:
		if b.inFlight > 0 {
			b.inFlight--
		}
		b.trip() // the probe failed: back to open, cooldown restarts
	}
}

// record appends one outcome to the rolling window.
func (b *Breaker) record(failed bool) {
	b.window[b.windowAt] = failed
	b.windowAt++
	if b.windowAt == len(b.window) {
		b.windowAt = 0
		b.windowFull = true
	}
}

// rateTripped reports whether the windowed error rate exceeds the
// configured threshold. Only meaningful once the window is full, so a
// single early failure cannot read as a 100% error rate.
func (b *Breaker) rateTripped() bool {
	if b.cfg.FailureRate <= 0 || !b.windowFull {
		return false
	}
	failures := 0
	for _, f := range b.window {
		if f {
			failures++
		}
	}
	return float64(failures)/float64(len(b.window)) > b.cfg.FailureRate
}

// trip opens the breaker and resets the counting state.
func (b *Breaker) trip() {
	b.openedAt = b.cfg.now()
	b.consecutive = 0
	b.probes = 0
	b.inFlight = 0
	for i := range b.window {
		b.window[i] = false
	}
	b.windowAt = 0
	b.windowFull = false
	b.transition(Open)
}

// maybeHalfOpen moves open → half-open once the cooldown has elapsed.
// Callers hold b.mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == Open && b.cfg.now().Sub(b.openedAt) >= b.cfg.cooldown() {
		b.probes = 0
		b.inFlight = 0
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
