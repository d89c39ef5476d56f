package faas

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/metrics"
)

func panicEndpoint(t *testing.T, cfg EndpointConfig) (*Endpoint, *metrics.Registry) {
	t.Helper()
	reg := NewRegistry()
	reg.Register("boom", func([]byte) ([]byte, error) { panic("kaboom") })
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("block", func(p []byte) ([]byte, error) {
		time.Sleep(100 * time.Millisecond)
		return p, nil
	})
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 2
	}
	ep := NewEndpoint(cfg, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)
	return ep, m
}

func TestPanicDoesNotKillEndpoint(t *testing.T) {
	ep, m := panicEndpoint(t, EndpointConfig{})
	_, err := ep.Invoke("boom", nil)
	if !errors.Is(err, ErrHandlerPanic) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic value lost from error: %v", err)
	}
	// The endpoint must keep serving.
	out, err := ep.Invoke("echo", []byte("alive"))
	if err != nil || string(out) != "alive" {
		t.Fatalf("endpoint dead after panic: %q, %v", out, err)
	}
	c := m.Counter(metrics.Label("faas_panics_total", "ep", "test", "fn", "boom"))
	if c.Value() != 1 {
		t.Fatalf("faas_panics_total = %d", c.Value())
	}
}

func TestPanicInBatchRecovered(t *testing.T) {
	ep, m := panicEndpoint(t, EndpointConfig{})
	outs, err := ep.InvokeBatch("boom", [][]byte{nil, nil})
	if !errors.Is(err, ErrHandlerPanic) {
		t.Fatalf("err = %v", err)
	}
	if len(outs) != 2 {
		t.Fatalf("outs = %v", outs)
	}
	if c := m.Counter(metrics.Label("faas_panics_total", "ep", "test", "fn", "boom")); c.Value() != 2 {
		t.Fatalf("faas_panics_total = %d", c.Value())
	}
	if _, err := ep.InvokeBatch("echo", [][]byte{[]byte("x")}); err != nil {
		t.Fatalf("endpoint dead after batch panic: %v", err)
	}
}

func TestPanicReleasesCapacity(t *testing.T) {
	ep, _ := panicEndpoint(t, EndpointConfig{Capacity: 1})
	for i := 0; i < 5; i++ {
		if _, err := ep.Invoke("boom", nil); !errors.Is(err, ErrHandlerPanic) {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	if got := ep.Running(); got != 0 {
		t.Fatalf("Running() = %d after panics", got)
	}
}

// holdEndpoint returns an endpoint whose "hold" handler reports on held
// that it has a slot and keeps it until release is closed, and whose
// "echo" handler returns its payload.
func holdEndpoint(cfg EndpointConfig) (ep *Endpoint, held, release chan struct{}) {
	held, release = make(chan struct{}, 1), make(chan struct{})
	reg := NewRegistry()
	reg.Register("hold", func(p []byte) ([]byte, error) {
		held <- struct{}{}
		<-release
		return p, nil
	})
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	cfg.Name = "test"
	return NewEndpoint(cfg, reg), held, release
}

// TestQueueWaitTimeout: with the only slot held, a call gives up after
// its queue wait with ErrOverloaded, before the slot is released.
func TestQueueWaitTimeout(t *testing.T) {
	ep, held, release := holdEndpoint(EndpointConfig{Capacity: 1, QueueWait: 20 * time.Millisecond})
	holder := make(chan error, 1)
	go func() {
		_, err := ep.Invoke("hold", nil)
		holder <- err
	}()
	<-held
	_, err := ep.Invoke("echo", nil)
	if got := ep.Running(); got != 1 {
		t.Fatalf("Running() = %d when the queued call returned, want the held slot", got)
	}
	close(release)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v", err)
	}
	// Pin the satellite fix: queue-wait expiry is the server's overload
	// verdict, NOT the caller's deadline — wrapping both made callers
	// classifying via errors.Is(err, context.DeadlineExceeded) mistake
	// overload for their own deadline expiring.
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queue-wait overload wraps context.DeadlineExceeded: %v", err)
	}
	if err := <-holder; err != nil {
		t.Fatalf("holder: %v", err)
	}
	// Slot freed: the endpoint serves again.
	if _, err := ep.Invoke("echo", nil); err != nil {
		t.Fatalf("endpoint wedged after queue timeout: %v", err)
	}
}

func TestQueueWaitContextCancel(t *testing.T) {
	ep, _ := panicEndpoint(t, EndpointConfig{Capacity: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep.Invoke("block", nil)
	}()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := ep.InvokeContext(ctx, "echo", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	wg.Wait()
}

// TestExecTimeout: a handler that outlives ExecTimeout is abandoned; the
// caller gets DeadlineExceeded while the handler still holds its slot,
// and the slot comes back once the handler returns.
func TestExecTimeout(t *testing.T) {
	ep, held, release := holdEndpoint(EndpointConfig{Capacity: 1, ExecTimeout: 20 * time.Millisecond})
	_, err := ep.Invoke("hold", nil)
	<-held
	if got := ep.Running(); got != 1 {
		t.Fatalf("Running() = %d when the call returned, want the held slot", got)
	}
	close(release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	// The abandoned handler holds the slot until it returns; afterwards
	// capacity must be fully restored (no leak).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := ep.Invoke("echo", nil); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("capacity never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := ep.Running(); got != 0 {
		t.Fatalf("Running() = %d after recovery", got)
	}
}

// TestBatchExecTimeout: ExecTimeout bounds a batch as a whole. The
// caller gets a deadline error and no results slice, which the
// abandoned handler is still writing (run under -race), and the slot
// comes back once the handler returns.
func TestBatchExecTimeout(t *testing.T) {
	release := make(chan struct{})
	reg := NewRegistry()
	reg.Register("wedge", func(p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	ep := NewEndpoint(EndpointConfig{Name: "batch", Capacity: 1, ExecTimeout: 10 * time.Millisecond}, reg)
	outs, err := ep.InvokeBatch("wedge", [][]byte{[]byte("a"), []byte("b")})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if outs != nil {
		t.Fatalf("abandoned batch returned %q", outs)
	}
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for ep.Running() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned batch never gave its slot back")
		}
		time.Sleep(time.Millisecond)
	}
	if outs, err := ep.InvokeBatch("wedge", [][]byte{[]byte("c")}); err != nil || string(outs[0]) != "c" {
		t.Fatalf("batch after recovery = %q, %v", outs, err)
	}
}

func TestExecContextCancel(t *testing.T) {
	ep, _ := panicEndpoint(t, EndpointConfig{Capacity: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := ep.InvokeContext(ctx, "block", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestExecTimeoutNotTriggeredByFastHandler(t *testing.T) {
	ep, _ := panicEndpoint(t, EndpointConfig{ExecTimeout: time.Second})
	out, err := ep.Invoke("echo", []byte("fast"))
	if err != nil || string(out) != "fast" {
		t.Fatalf("out=%q err=%v", out, err)
	}
}

// TestExecTimeoutCapacityUnderLoad hammers a deadline-bounded endpoint
// and then verifies no slot was leaked by either the normal or the
// abandoned-handler release path.
func TestExecTimeoutCapacityUnderLoad(t *testing.T) {
	reg := NewRegistry()
	reg.Register("mixed", func(p []byte) ([]byte, error) {
		if len(p) > 0 && p[0] == 's' {
			time.Sleep(30 * time.Millisecond) // will exceed the deadline
		}
		return p, nil
	})
	ep := NewEndpoint(EndpointConfig{
		Name: "load", Capacity: 4, ExecTimeout: 5 * time.Millisecond,
	}, reg)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := []byte("f")
			if i%2 == 0 {
				p = []byte("s")
			}
			ep.Invoke("mixed", p)
		}()
	}
	wg.Wait()
	// Wait out any abandoned handlers, then demand full capacity back.
	time.Sleep(100 * time.Millisecond)
	if got := ep.Running(); got != 0 {
		t.Fatalf("Running() = %d after drain", got)
	}
	done := make(chan struct{})
	go func() {
		var inner sync.WaitGroup
		for i := 0; i < 4; i++ {
			inner.Add(1)
			go func() {
				defer inner.Done()
				ep.Invoke("mixed", []byte("f"))
			}()
		}
		inner.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("capacity leaked: 4 fast invokes could not run concurrently")
	}
}
