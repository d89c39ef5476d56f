package wire

// Hedged-request tests: the tail-latency arm must win races cleanly,
// settle the losing arm as a cancellation (never a breaker failure),
// and leave no per-connection call state behind on either codec path.

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/retry"
)

// slowServer serves "work" with a fixed handler delay, so it reliably
// loses any hedged race against a fast peer.
func slowServer(t *testing.T, name string, d time.Duration) *Server {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("work", func(p []byte) ([]byte, error) {
		time.Sleep(d)
		return bytes.ToUpper(p), nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{Name: name, Capacity: 8}, reg)
	return &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
}

func fastServer(t *testing.T, name string) *Server {
	return slowServer(t, name, 0)
}

// TestHedgeWinsAgainstSlowEndpoint: the primary lands on a slow
// endpoint, the hedge delay elapses, the backup arm on the fast
// endpoint answers first, and the call returns the backup's response
// long before the primary would have.
func TestHedgeWinsAgainstSlowEndpoint(t *testing.T) {
	slowAddr := startServerOn(t, slowServer(t, "slow", 300*time.Millisecond))
	fastAddr := startServerOn(t, fastServer(t, "fast"))
	r, err := NewReliableClient(ReliableConfig{
		Addrs: []string{slowAddr, fastAddr}, // pick starts at eps[0] = slow
		Hedge: HedgeConfig{Enabled: true, Delay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	out, err := r.Invoke("work", []byte("hedged"))
	if err != nil || string(out) != "HEDGED" {
		t.Fatalf("hedged call = %q, %v", out, err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("hedged call took %v — the backup arm did not win", elapsed)
	}
	launched, wins := r.HedgeStats()
	if launched != 1 || wins != 1 {
		t.Fatalf("HedgeStats = %d launched, %d wins, want 1/1", launched, wins)
	}
}

// TestHedgeLoserDoesNotTripBreaker: a hedged race's losing arm is
// cancelled, not failed. With a one-failure breaker threshold, any
// misclassification of the cancellation as a failure would trip the
// slow endpoint open on the very first lost race.
func TestHedgeLoserDoesNotTripBreaker(t *testing.T) {
	slowAddr := startServerOn(t, slowServer(t, "slow", 100*time.Millisecond))
	fastAddr := startServerOn(t, fastServer(t, "fast"))
	var trips atomic.Int64
	r, err := NewReliableClient(ReliableConfig{
		Addrs: []string{slowAddr, fastAddr},
		Hedge: HedgeConfig{Enabled: true, Delay: 5 * time.Millisecond},
		Breaker: retry.BreakerConfig{FailureThreshold: 1, OnStateChange: func(_, to retry.State) {
			if to == retry.Open {
				trips.Add(1)
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Several races in a row; the slow endpoint loses every one it is
	// part of (pick rotates, so it is primary on even calls and hedge
	// target on odd ones).
	for i := 0; i < 6; i++ {
		out, err := r.Invoke("work", []byte("race"))
		if err != nil || string(out) != "RACE" {
			t.Fatalf("call %d = %q, %v", i, out, err)
		}
	}
	// Losing arms settle asynchronously (cancellation returns them
	// within a few ms of the winner); give them a moment, then assert
	// nothing was ever recorded as a failure.
	time.Sleep(100 * time.Millisecond)
	states := r.BreakerStates()
	if trips.Load() != 0 || states[slowAddr] != retry.Closed || states[fastAddr] != retry.Closed {
		t.Fatalf("breakers after hedged races: states=%v trips=%d, want all closed with 0 trips",
			states, trips.Load())
	}
	if launched, wins := r.HedgeStats(); launched == 0 || wins == 0 {
		t.Fatalf("HedgeStats = %d/%d, expected hedges to launch and win", launched, wins)
	}
}

// TestHedgeNoSecondEndpointStaysSingleArm: when the only other breaker
// refuses traffic the race must degrade to one arm and still succeed,
// without counting a phantom hedge.
func TestHedgeNoSecondEndpointStaysSingleArm(t *testing.T) {
	// The live endpoint is slow enough that the 1ms hedge timer always
	// fires mid-call; the only other address is a dead listener whose
	// breaker trips on first contact.
	okAddr := startServerOn(t, slowServer(t, "ok", 30*time.Millisecond))
	deadLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLis.Addr().String()
	deadLis.Close()

	r, err := NewReliableClient(ReliableConfig{
		Addrs:   []string{okAddr, deadAddr},
		Hedge:   HedgeConfig{Enabled: true, Delay: time.Millisecond},
		Breaker: retry.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
		Retry:   retry.Policy{MaxAttempts: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Warm up until the dead endpoint's breaker is open (the first call
	// that touches it — as primary or hedge target — trips it).
	for i := 0; i < 4; i++ {
		if _, err := r.Invoke("work", []byte("warm")); err != nil {
			t.Fatalf("warmup call %d: %v", i, err)
		}
	}
	if r.BreakerStates()[deadAddr] != retry.Open {
		t.Fatalf("dead endpoint breaker = %v, want open", r.BreakerStates()[deadAddr])
	}
	launchedBefore, _ := r.HedgeStats()

	// With the dead breaker open, pick finds no admissible backup,
	// so the hedge timer fires into a no-op and the race stays one-arm.
	out, err := r.Invoke("work", []byte("solo"))
	if err != nil || string(out) != "SOLO" {
		t.Fatalf("single-arm call = %q, %v", out, err)
	}
	if launched, _ := r.HedgeStats(); launched != launchedBefore {
		t.Fatalf("hedges launched went %d -> %d with no admissible backup", launchedBefore, launched)
	}
}

// TestHedgeConcurrentCallsClean: hedged calls under concurrency must
// return each caller its own payload — a crossed wire between arms or
// a leaked pending entry shows up as a mismatched echo.
func TestHedgeConcurrentCallsClean(t *testing.T) {
	aAddr := startServerOn(t, slowServer(t, "a", 20*time.Millisecond))
	bAddr := startServerOn(t, fastServer(t, "b"))
	r, err := NewReliableClient(ReliableConfig{
		Addrs:    []string{aAddr, bAddr},
		PoolSize: 1, // every call shares one connection per endpoint
		Hedge:    HedgeConfig{Enabled: true, Delay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fmt.Sprintf("msg-%03d", i)
			out, err := r.Invoke("work", []byte(in))
			if err != nil {
				errs <- fmt.Errorf("call %d: %w", i, err)
				return
			}
			if string(out) != fmt.Sprintf("MSG-%03d", i) {
				errs <- fmt.Errorf("call %d echoed %q", i, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParseHedge is the -hedge flag → HedgeConfig table continuumctl and
// continuum-router share.
func TestParseHedge(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    HedgeConfig
		wantErr bool
	}{
		{in: "", want: HedgeConfig{}},
		{in: "auto", want: HedgeConfig{Enabled: true}},
		{in: "5ms", want: HedgeConfig{Enabled: true, Delay: 5 * time.Millisecond}},
		{in: "0", wantErr: true},
		{in: "-1ms", wantErr: true},
		{in: "x", wantErr: true},
	} {
		got, err := ParseHedge(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ParseHedge(%q) = %+v, %v; want %+v, error %v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
}
