package wire

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
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
