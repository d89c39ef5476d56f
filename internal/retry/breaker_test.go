package retry

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// countTrips returns an OnStateChange hook and the count of transitions
// into Open it has seen.
func countTrips() (func(from, to State), *int) {
	trips := 0
	return func(_, to State) {
		if to == Open {
			trips++
		}
	}, &trips
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{}
	hook, trips := countTrips()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Second, Now: clk.now, OnStateChange: hook})
	if b.State() != Closed || !b.Allow() {
		t.Fatal("new breaker not closed/allowing")
	}
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("tripped after 2 of 3 failures")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v after threshold failures", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call")
	}
	if *trips != 1 {
		t.Fatalf("trips = %d", *trips)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	clk := &fakeClock{}
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Now: clk.now})
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("interleaved success did not reset the consecutive count")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("did not trip at threshold after reset")
	}
}

func TestBreakerHalfOpenProbeRecloses(t *testing.T) {
	clk := &fakeClock{}
	var transitions []State
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         time.Second,
		Now:              clk.now,
		OnStateChange:    func(_, to State) { transitions = append(transitions, to) },
	})
	b.Failure() // trips
	if b.Allow() {
		t.Fatal("open breaker allowed")
	}
	clk.advance(time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open refused the probe")
	}
	// Only one concurrent probe is admitted.
	if b.Allow() {
		t.Fatal("half-open admitted a second concurrent probe")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after probe success = %v", b.State())
	}
	want := []State{Open, HalfOpen, Closed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v", transitions)
	}
	for i, w := range want {
		if transitions[i] != w {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := &fakeClock{}
	hook, trips := countTrips()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, Now: clk.now, OnStateChange: hook})
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("half-open refused the probe")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after probe failure = %v", b.State())
	}
	if *trips != 2 {
		t.Fatalf("trips = %d", *trips)
	}
	// The cooldown restarted at the probe failure.
	clk.advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("allowed before the restarted cooldown elapsed")
	}
	clk.advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("refused after the restarted cooldown")
	}
}

// TestBreakerCancelReturnsHalfOpenProbe is the hedge-interaction
// regression: an admitted half-open probe that is abandoned (its hedge
// sibling won, the arm was cancelled) must return its probe slot via
// Cancel — without tripping, without counting as a success — or the
// breaker wedges in half-open forever.
func TestBreakerCancelReturnsHalfOpenProbe(t *testing.T) {
	clk := &fakeClock{}
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, Now: clk.now})
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("half-open refused the first probe")
	}
	if b.Allow() {
		t.Fatal("admitted a second concurrent probe")
	}
	b.Cancel() // the admitted probe was abandoned, not concluded
	if b.State() != HalfOpen {
		t.Fatalf("state = %v after cancel, want half-open (no outcome recorded)", b.State())
	}
	if !b.Allow() {
		t.Fatal("probe slot not returned: breaker is wedged")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v after the real probe succeeded", b.State())
	}
}

// TestBreakerCancelNoopWhenClosed: cancelling in closed (or open) state
// records nothing — it must not reset failure counting or open the gate.
func TestBreakerCancelNoopWhenClosed(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	b.Failure()
	b.Cancel()
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v, want open (cancel must not reset the failure count)", b.State())
	}
	b.Cancel()
	if b.Allow() {
		t.Fatal("cancel re-opened the gate of an open breaker")
	}
}
