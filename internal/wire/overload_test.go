package wire

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/metrics"
	"continuum/internal/retry"
)

// shedServer builds a server over a capacity-1 admission-controlled
// endpoint plus a release-gated "hold" handler, so tests can saturate it
// deterministically.
func shedServer(t *testing.T) (*Server, *faas.Endpoint, chan struct{}) {
	t.Helper()
	reg := faas.NewRegistry()
	release := make(chan struct{})
	reg.Register("hold", func(p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "shedbox", Capacity: 1, QueueWait: 2 * time.Second,
		Admission: faas.AdmissionConfig{Enabled: true, MaxQueue: 3},
	}, reg)
	return &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}, ep, release
}

// TestShedCarriesRetryAfterToClient is the wire half of admission
// control: a low-priority request shed by a saturated server must come
// back fast (not after QueueWait), marked retryable, carrying the
// server's Retry-After hint — and the hint must be extractable by the
// retry package's hook.
func TestShedCarriesRetryAfterToClient(t *testing.T) {
	srv, ep, release := shedServer(t)
	addr := startServerOn(t, srv)
	defer close(release)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Saturate: one call holds the only slot...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Invoke("hold", nil)
	}()
	waitCond(t, func() bool { return ep.Running() == 1 })
	// ...and one low-priority call fills the low class's queue watermark
	// (MaxQueue 3 → the low class sheds beyond 1 queued).
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.InvokeContext(faas.WithPriority(context.Background(), faas.PriorityLow), "hold", nil)
	}()
	waitCond(t, func() bool { return ep.QueueDepth() == 1 })

	start := time.Now()
	_, err = c.InvokeContext(faas.WithPriority(context.Background(), faas.PriorityLow), "echo", nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("low-priority invoke admitted past the class watermark")
	}
	// Shed means rejected on arrival: far sooner than the 2s QueueWait.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("shed took %v, want immediate rejection", elapsed)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !re.Retryable {
		t.Fatalf("shed response not retryable: %v", err)
	}
	if re.RetryAfterHint <= 0 {
		t.Fatalf("shed response carries no Retry-After hint: %+v", re)
	}
	if got := retry.RetryAfterHint(err); got != re.RetryAfterHint {
		t.Fatalf("retry.RetryAfterHint(err) = %v, want %v", got, re.RetryAfterHint)
	}
	release <- struct{}{} // free the slot holder
	release <- struct{}{} // and the queued waiter
	wg.Wait()
}

// TestPriorityReachesAdmission proves the wire actually carries the
// class: under the exact same saturation, a NORMAL-priority request is
// queued (its watermark is higher), where the low-priority one above
// was shed. If priority were dropped on the wire both would behave
// identically.
func TestPriorityReachesAdmission(t *testing.T) {
	srv, ep, release := shedServer(t)
	addr := startServerOn(t, srv)
	defer close(release)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Invoke("hold", nil)
	}()
	waitCond(t, func() bool { return ep.Running() == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.InvokeContext(faas.WithPriority(context.Background(), faas.PriorityLow), "hold", nil)
	}()
	waitCond(t, func() bool { return ep.QueueDepth() == 1 })

	// Normal priority, same queue depth: must be admitted to the queue
	// and eventually served, not shed.
	done := make(chan error, 1)
	go func() {
		_, err := c.Invoke("echo", nil)
		done <- err
	}()
	waitCond(t, func() bool { return ep.QueueDepth() == 2 })
	release <- struct{}{} // slot holder finishes; queue drains in class order
	release <- struct{}{} // low "hold" waiter runs and finishes
	if err := <-done; err != nil {
		t.Fatalf("normal-priority invoke shed at a depth the low class sheds at: %v", err)
	}
	wg.Wait()
}

// TestRetryBudgetSharedByHedgesAndRetries: one token bucket, two kinds
// of extra load. A hedge arm spends the bucket's only token; a
// subsequent retry finds it empty and fails with ErrBudgetExhausted
// instead of launching — proving hedges and retries draw from the same
// budget, and that exhaustion is terminal (non-retryable).
func TestRetryBudgetSharedByHedgesAndRetries(t *testing.T) {
	// Ratio tiny-but-positive so the hedged call's success cannot refill
	// a whole token.
	budget := retry.NewBudget(retry.BudgetConfig{Tokens: 1, Ratio: 1e-9})

	// Two slow endpoints: every call outlives the hedge delay.
	slow := func(name string) *Server {
		reg := faas.NewRegistry()
		reg.Register("slow", func(p []byte) ([]byte, error) {
			time.Sleep(60 * time.Millisecond)
			return p, nil
		})
		ep := faas.NewEndpoint(faas.EndpointConfig{Name: name, Capacity: 4}, reg)
		return &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
	}
	addr1 := startServerOn(t, slow("slow1"))
	addr2 := startServerOn(t, slow("slow2"))

	hedger, err := NewReliableClient(ReliableConfig{
		Addrs:  []string{addr1, addr2},
		Hedge:  HedgeConfig{Enabled: true, Delay: 5 * time.Millisecond},
		Budget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hedger.Close()
	if _, err := hedger.Invoke("slow", []byte("x")); err != nil {
		t.Fatalf("hedged call failed: %v", err)
	}
	if launched, _ := hedger.HedgeStats(); launched != 1 {
		t.Fatalf("hedges launched = %d, want 1 (the budget's only token)", launched)
	}
	if budget.Spend() {
		t.Fatal("budget still held a whole token after the hedge")
	}

	// Same bucket, now a retry client against a saturated endpoint.
	reg := faas.NewRegistry()
	release := make(chan struct{})
	defer close(release)
	reg.Register("hold", func(p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "tight", Capacity: 1, QueueWait: 5 * time.Millisecond,
	}, reg)
	addr3 := startServerOn(t, &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}})

	retrierReg := metrics.NewRegistry()
	retrier, err := NewReliableClient(ReliableConfig{
		Addrs:   []string{addr3},
		Retry:   retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Budget:  budget,
		Metrics: retrierReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer retrier.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		retrier.Invoke("hold", nil) // occupies the only slot
	}()
	waitCond(t, func() bool { return ep.Running() == 1 })

	_, err = retrier.Invoke("hold", nil) // overloaded; first retry needs a token
	if !errors.Is(err, retry.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted (hedge drained the shared bucket)", err)
	}
	if retrierReg.Counter("wire_retry_budget_exhausted_total").Value() == 0 {
		t.Fatal("budget denial not counted")
	}
	release <- struct{}{}
	wg.Wait()
}

// TestHedgeSuppressedByEmptyBudget: an empty budget must not fail a
// hedged call — the race just stays one-arm.
func TestHedgeSuppressedByEmptyBudget(t *testing.T) {
	budget := retry.NewBudget(retry.BudgetConfig{Tokens: 1, Ratio: 1e-9})
	if !budget.Spend() {
		t.Fatal("fresh bucket empty")
	}

	slow := func(name string) *Server {
		reg := faas.NewRegistry()
		reg.Register("slow", func(p []byte) ([]byte, error) {
			time.Sleep(40 * time.Millisecond)
			return p, nil
		})
		ep := faas.NewEndpoint(faas.EndpointConfig{Name: name, Capacity: 4}, reg)
		return &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
	}
	reg := metrics.NewRegistry()
	c, err := NewReliableClient(ReliableConfig{
		Addrs:   []string{startServerOn(t, slow("a")), startServerOn(t, slow("b"))},
		Hedge:   HedgeConfig{Enabled: true, Delay: 5 * time.Millisecond},
		Budget:  budget,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Invoke("slow", []byte("ok"))
	if err != nil || string(out) != "ok" {
		t.Fatalf("call under empty budget: out=%q err=%v", out, err)
	}
	if launched, _ := c.HedgeStats(); launched != 0 {
		t.Fatalf("hedges launched = %d with an empty budget", launched)
	}
	if reg.Counter("wire_retry_budget_exhausted_total").Value() == 0 {
		t.Fatal("suppressed hedge not counted as a budget denial")
	}
}

// waitCond polls cond for up to 2s.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}
