package retry

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// t0 is the start of every breaker test's clock; tests pass t0 plus an
// offset as the time.
var t0 = time.Unix(1_000_000, 0)

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

// allow asks b at now and fails the test unless the answer is want.
func allow(t *testing.T, b *Breaker, now time.Time, want bool, what string) Ticket {
	t.Helper()
	tk, ok := b.Allow(now)
	if ok != want {
		t.Fatalf("%s: Allow = %v, want %v", what, ok, want)
	}
	return tk
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	hook, trips := countTrips()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Second, OnStateChange: hook})
	if b.State(t0) != Closed {
		t.Fatal("new breaker not closed")
	}
	tk := allow(t, b, t0, true, "new breaker")
	b.Failure(t0, tk)
	b.Failure(t0, tk)
	if b.State(t0) != Closed {
		t.Fatalf("tripped after 2 of 3 failures")
	}
	b.Failure(t0, tk)
	if b.State(t0) != Open {
		t.Fatalf("state = %v after threshold failures", b.State(t0))
	}
	allow(t, b, t0, false, "open breaker")
	if *trips != 1 {
		t.Fatalf("trips = %d", *trips)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3})
	b.Failure(t0, Ticket{})
	b.Failure(t0, Ticket{})
	b.Success(Ticket{})
	b.Failure(t0, Ticket{})
	b.Failure(t0, Ticket{})
	if b.State(t0) != Closed {
		t.Fatal("interleaved success did not reset the consecutive count")
	}
	b.Failure(t0, Ticket{})
	if b.State(t0) != Open {
		t.Fatal("did not trip at threshold after reset")
	}
}

func TestBreakerHalfOpenProbeRecloses(t *testing.T) {
	var transitions []State
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		Cooldown:         time.Second,
		OnStateChange:    func(_, to State) { transitions = append(transitions, to) },
	})
	b.Failure(t0, Ticket{}) // trips
	allow(t, b, t0, false, "open breaker")
	now := t0.Add(time.Second)
	if b.State(now) != HalfOpen {
		t.Fatalf("state after cooldown = %v", b.State(now))
	}
	probe := allow(t, b, now, true, "half-open probe")
	// Only one concurrent probe is admitted.
	allow(t, b, now, false, "second concurrent probe")
	b.Success(probe)
	if b.State(now) != Closed {
		t.Fatalf("state after probe success = %v", b.State(now))
	}
	if want := []State{Open, HalfOpen, Closed}; !slices.Equal(transitions, want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	hook, trips := countTrips()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second, OnStateChange: hook})
	b.Failure(t0, Ticket{})
	now := t0.Add(time.Second)
	probe := allow(t, b, now, true, "half-open probe")
	b.Failure(now, probe)
	if b.State(now) != Open {
		t.Fatalf("state after probe failure = %v", b.State(now))
	}
	if *trips != 2 {
		t.Fatalf("trips = %d", *trips)
	}
	// The cooldown restarted at the probe failure.
	allow(t, b, now.Add(500*time.Millisecond), false, "before the restarted cooldown")
	allow(t, b, now.Add(time.Second), true, "after the restarted cooldown")
}

// TestBreakerCancelReturnsHalfOpenProbe is the hedge-interaction
// regression: an admitted half-open probe that is abandoned (its hedge
// sibling won, the arm was cancelled) must return its probe slot via
// Cancel — without tripping, without counting as a success — or the
// breaker wedges in half-open forever.
func TestBreakerCancelReturnsHalfOpenProbe(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	b.Failure(t0, Ticket{})
	now := t0.Add(time.Second)
	probe := allow(t, b, now, true, "first probe")
	allow(t, b, now, false, "second concurrent probe")
	b.Cancel(probe) // the admitted probe was abandoned, not concluded
	if b.State(now) != HalfOpen {
		t.Fatalf("state = %v after cancel, want half-open (no outcome recorded)", b.State(now))
	}
	probe = allow(t, b, now, true, "probe after the cancel (slot not returned: wedged)")
	b.Success(probe)
	if b.State(now) != Closed {
		t.Fatalf("state = %v after the real probe succeeded", b.State(now))
	}
}

// TestBreakerCancelNoopWhenClosed: cancelling in closed (or open) state
// records nothing — it must not reset failure counting or open the gate.
func TestBreakerCancelNoopWhenClosed(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	b.Failure(t0, Ticket{})
	b.Cancel(Ticket{})
	b.Failure(t0, Ticket{})
	if b.State(t0) != Open {
		t.Fatalf("state = %v, want open (cancel must not reset the failure count)", b.State(t0))
	}
	b.Cancel(Ticket{})
	allow(t, b, t0, false, "open breaker after a cancel")
}

// staleSetup trips a one-failure breaker with call A still out, then
// admits probe B after the cooldown. It returns A's ticket, B's ticket
// and the time B was admitted.
func staleSetup(t *testing.T) (*Breaker, Ticket, Ticket, time.Time) {
	t.Helper()
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	a := allow(t, b, t0, true, "call A while closed")
	x := allow(t, b, t0, true, "call X while closed")
	b.Failure(t0, x) // X trips the breaker; A is still out
	now := t0.Add(time.Second)
	probe := allow(t, b, now, true, "probe B")
	return b, a, probe, now
}

// TestBreakerStaleCancelKeepsProbeSlot: a call admitted before the trip
// and cancelled after it (a hedge loser) must not free the probe slot
// while probe B is out.
func TestBreakerStaleCancelKeepsProbeSlot(t *testing.T) {
	b, a, probe, now := staleSetup(t)
	b.Cancel(a)
	allow(t, b, now, false, "second probe after a stale cancel")
	b.Success(probe)
	if b.State(now) != Closed {
		t.Fatalf("state = %v after probe B succeeded", b.State(now))
	}
}

// TestBreakerStaleSuccessDoesNotClose: a late success of a call admitted
// before the trip must not close a half-open breaker; only probe B's
// outcome decides.
func TestBreakerStaleSuccessDoesNotClose(t *testing.T) {
	b, a, probe, now := staleSetup(t)
	b.Success(a)
	if b.State(now) != HalfOpen {
		t.Fatalf("state = %v after a stale success, want half-open", b.State(now))
	}
	b.Failure(now, probe)
	if b.State(now) != Open {
		t.Fatalf("state = %v after probe B failed, want open", b.State(now))
	}
}

// breakerModel is the reference the Breaker is checked against. It
// tells stale outcomes apart by trip generation rather than by a probe
// flag: a call's outcome moves a half-open breaker only if the call was
// admitted half-open in the current generation.
type breakerModel struct {
	threshold int
	cooldown  time.Duration
	state     State
	fails     int
	openedAt  time.Duration
	gen       int  // trips so far
	probeOut  bool // the half-open probe is out
	moves     []State
}

// modelCall is what the model remembers of an admitted call.
type modelCall struct {
	gen      int
	halfOpen bool
}

func (m *breakerModel) move(to State) {
	if m.state != to {
		m.state = to
		m.moves = append(m.moves, to)
	}
}

func (m *breakerModel) at(now time.Duration) State {
	if m.state == Open && now-m.openedAt >= m.cooldown {
		m.move(HalfOpen)
	}
	return m.state
}

func (m *breakerModel) allow(now time.Duration) (modelCall, bool) {
	switch m.at(now) {
	case Closed:
		return modelCall{gen: m.gen}, true
	case HalfOpen:
		if m.probeOut {
			return modelCall{}, false
		}
		m.probeOut = true
		return modelCall{gen: m.gen, halfOpen: true}, true
	}
	return modelCall{}, false
}

// current reports whether c is the probe of this half-open period.
func (m *breakerModel) current(c modelCall) bool {
	return m.state == HalfOpen && c.halfOpen && c.gen == m.gen
}

func (m *breakerModel) trip(now time.Duration) {
	m.gen++
	m.openedAt, m.fails, m.probeOut = now, 0, false
	m.move(Open)
}

func (m *breakerModel) success(c modelCall) {
	if m.state == Closed {
		m.fails = 0
	} else if m.current(c) {
		m.probeOut = false
		m.move(Closed)
	}
}

func (m *breakerModel) failure(now time.Duration, c modelCall) {
	if m.state == Closed {
		if m.fails++; m.fails >= m.threshold {
			m.trip(now)
		}
	} else if m.current(c) {
		m.trip(now)
	}
}

func (m *breakerModel) cancel(c modelCall) {
	if m.current(c) {
		m.probeOut = false
	}
}

// TestBreakerMatchesModel drives the Breaker with seeded random
// sequences of admissions, outcomes (success, failure, cancel) of any
// outstanding call, and clock advances — many of them landing one
// nanosecond before, on, or one after the cooldown edge — and compares
// every step's state, admission and OnStateChange transitions with
// breakerModel. Calls admitted before a trip often report after it.
func TestBreakerMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &breakerModel{
			threshold: 1 + rng.Intn(4),
			cooldown:  time.Duration(1+rng.Intn(5)) * time.Millisecond,
		}
		var moves []State
		b := NewBreaker(BreakerConfig{
			FailureThreshold: m.threshold,
			Cooldown:         m.cooldown,
			OnStateChange: func(from, to State) {
				if from == to {
					t.Fatalf("seed %d: transition %v → %v", seed, from, to)
				}
				moves = append(moves, to)
			},
		})
		type call struct {
			tk Ticket
			mc modelCall
		}
		var out []call
		var now time.Duration
		for step := 0; step < 400; step++ {
			what := ""
			switch op := rng.Intn(10); {
			case op < 3:
				what = "allow"
				tk, ok := b.Allow(t0.Add(now))
				mc, want := m.allow(now)
				if ok != want {
					t.Fatalf("seed %d step %d: Allow = %v, model %v", seed, step, ok, want)
				}
				if ok {
					out = append(out, call{tk, mc})
				}
			case op < 7 && len(out) > 0:
				i := rng.Intn(len(out))
				c := out[i]
				out = slices.Delete(out, i, i+1)
				switch rng.Intn(3) {
				case 0:
					what = "success"
					b.Success(c.tk)
					m.success(c.mc)
				case 1:
					what = "failure"
					b.Failure(t0.Add(now), c.tk)
					m.failure(now, c.mc)
				default:
					what = "cancel"
					b.Cancel(c.tk)
					m.cancel(c.mc)
				}
			case op < 9 && m.state == Open:
				what = "advance to the cooldown edge"
				if edge := m.openedAt + m.cooldown + time.Duration(rng.Intn(3)-1); edge > now {
					now = edge
				}
			default:
				what = "advance"
				now += time.Duration(rng.Int63n(int64(m.cooldown)))
			}
			if got, want := b.State(t0.Add(now)), m.at(now); got != want {
				t.Fatalf("seed %d step %d (%s): state %v, model %v", seed, step, what, got, want)
			}
			if !slices.Equal(moves, m.moves) {
				t.Fatalf("seed %d step %d (%s): transitions %v, model %v", seed, step, what, moves, m.moves)
			}
		}
	}
}
