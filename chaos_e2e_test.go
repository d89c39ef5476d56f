package continuum_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/metrics"
	"continuum/internal/retry"
	"continuum/internal/wire"
)

// liveEndpoint assembles one in-process continuumd: a faas endpoint
// behind a wire server, optionally with chaos injection — the exact
// composition cmd/continuumd builds from flags.
func liveEndpoint(t *testing.T, name string, chaos *fault.Chaos) (*wire.Server, string) {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: name, Capacity: 8, WarmTTL: time.Minute,
	}, reg)
	srv := &wire.Server{
		Invoker: ep, Batcher: ep, Registry: reg,
		Endpoints: []*faas.Endpoint{ep},
	}
	srv.SetChaos(chaos)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return srv, lis.Addr().String()
}

// TestE2EChaosNoRequestLost is the end-to-end reliability claim: a
// federation of three endpoints, one injecting faults (dropped
// connections and error responses), one killed mid-run — and a
// ReliableClient still completes 100% of invocations, with the breaker
// transitions visible in the Prometheus exposition a daemon would serve.
func TestE2EChaosNoRequestLost(t *testing.T) {
	checkGoroutines(t)
	chaos := fault.NewChaos(fault.ChaosSpec{DropProb: 0.15, ErrProb: 0.25, Seed: 42})
	_, chaoticAddr := liveEndpoint(t, "chaotic", chaos)
	victim, victimAddr := liveEndpoint(t, "victim", nil)
	_, stableAddr := liveEndpoint(t, "stable", nil)

	m := metrics.NewRegistry()
	rc, err := wire.NewReliableClient(wire.ReliableConfig{
		Addrs: []string{chaoticAddr, victimAddr, stableAddr},
		Retry: retry.Policy{
			MaxAttempts: 12,
			BaseDelay:   time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
		},
		Breaker: retry.BreakerConfig{
			FailureThreshold: 3,
			Cooldown:         50 * time.Millisecond,
		},
		CallTimeout: 2 * time.Second,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const total, workers = 200, 8
	var wg sync.WaitGroup
	var failures []string
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/workers; i++ {
				if w == 0 && i == total/workers/2 {
					victim.Close() // kill an endpoint mid-run
				}
				want := fmt.Sprintf("req-%d-%d", w, i)
				out, err := rc.Invoke("echo", []byte(want))
				if err != nil || string(out) != want {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: %q, %v", want, out, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(failures) != 0 {
		t.Fatalf("%d/%d invocations lost under chaos:\n%s",
			len(failures), total, strings.Join(failures, "\n"))
	}

	// The dead endpoint's breaker must have tripped, and the whole
	// reliability state must be visible the way operators would see it:
	// through the metrics exposition.
	if rc.BreakerStates()[victimAddr] == retry.Closed {
		t.Fatalf("victim breaker still closed after endpoint death: %v", rc.BreakerStates())
	}
	var sb strings.Builder
	m.WritePrometheus(&sb)
	exp := sb.String()
	for _, want := range []string{"wire_breaker_state{", "wire_breaker_trips_total{", "wire_client_retries_total"} {
		if !strings.Contains(exp, want) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, exp)
		}
	}
	if m.Counter(metrics.Label("wire_breaker_trips_total", "ep", victimAddr)).Value() == 0 {
		t.Fatal("victim breaker trip not counted")
	}
	if m.Counter("wire_client_retries_total").Value() == 0 {
		t.Fatal("no retries recorded despite chaos and a killed endpoint")
	}
}

// slowableEndpoint is liveEndpoint with a handler whose delay the test
// controls per call — the straggler injector for hedging tests.
func slowableEndpoint(t *testing.T, name string, delay func() time.Duration) string {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) {
		if d := delay(); d > 0 {
			time.Sleep(d)
		}
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: name, Capacity: 16, WarmTTL: time.Minute, PreemptAbandoned: true,
	}, reg)
	srv := &wire.Server{
		Invoker: ep, Batcher: ep, Registry: reg,
		Endpoints: []*faas.Endpoint{ep},
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return lis.Addr().String()
}

// TestE2EChaosHedgedNoRequestLost is the hedging end-to-end claim: with
// hedged requests racing two endpoints — one of which stalls a fraction
// of its calls — every invocation still completes exactly once with its
// own payload. A leaked pending entry, a crossed response, or a
// duplicated one would surface as a mismatched echo; a hedge arm misreported
// to a breaker would surface as a trip on a healthy endpoint.
func TestE2EChaosHedgedNoRequestLost(t *testing.T) {
	checkGoroutines(t)
	var n int64
	var mu sync.Mutex
	straggle := func() time.Duration {
		mu.Lock()
		n++
		k := n
		mu.Unlock()
		if k%7 == 0 { // every 7th call on this endpoint stalls
			return 80 * time.Millisecond
		}
		return 0
	}
	slowAddr := slowableEndpoint(t, "straggler", straggle)
	fastAddr := slowableEndpoint(t, "healthy", func() time.Duration { return 0 })

	m := metrics.NewRegistry()
	rc, err := wire.NewReliableClient(wire.ReliableConfig{
		Addrs: []string{slowAddr, fastAddr},
		Retry: retry.Policy{
			MaxAttempts: 6,
			BaseDelay:   time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
		},
		Hedge:       wire.HedgeConfig{Enabled: true, Delay: 10 * time.Millisecond},
		CallTimeout: 2 * time.Second,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const total, workers = 200, 8
	var wg sync.WaitGroup
	var failures []string
	var fmu sync.Mutex
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/workers; i++ {
				want := fmt.Sprintf("hedged-%d-%d", w, i)
				out, err := rc.Invoke("echo", []byte(want))
				if err != nil || string(out) != want {
					fmu.Lock()
					failures = append(failures, fmt.Sprintf("%s: %q, %v", want, out, err))
					fmu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(failures) != 0 {
		t.Fatalf("%d/%d hedged invocations lost or misrouted:\n%s",
			len(failures), total, strings.Join(failures, "\n"))
	}

	launched, wins := rc.HedgeStats()
	if launched == 0 {
		t.Fatal("no hedge arms launched despite injected stragglers")
	}
	if wins == 0 {
		t.Fatal("no hedge wins despite 80ms stalls vs a 10ms hedge delay")
	}
	// Cancelled losing arms must not have tripped any breaker.
	for addr, st := range rc.BreakerStates() {
		if st != retry.Closed {
			t.Fatalf("breaker for %s = %v after hedged run, want closed", addr, st)
		}
	}
	if m.Counter("wire_hedges_total").Value() != launched {
		t.Fatalf("wire_hedges_total = %v, HedgeStats launched = %d",
			m.Counter("wire_hedges_total").Value(), launched)
	}
	if m.Counter("wire_hedge_wins_total").Value() != wins {
		t.Fatalf("wire_hedge_wins_total = %v, HedgeStats wins = %d",
			m.Counter("wire_hedge_wins_total").Value(), wins)
	}
}
