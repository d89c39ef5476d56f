package federation

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"continuum/internal/faas"
)

// TestLocalLeastLoaded: with every endpoint idle the first wins the
// tie, and a call arriving while it is busy goes to the idle one.
func TestLocalLeastLoaded(t *testing.T) {
	reg := faas.NewRegistry()
	block := make(chan struct{})
	reg.Register("block", func([]byte) ([]byte, error) { <-block; return nil, nil })
	reg.Register("quick", func([]byte) ([]byte, error) { return nil, nil })
	a := faas.NewEndpoint(faas.EndpointConfig{Name: "a", Capacity: 2}, reg)
	b := faas.NewEndpoint(faas.EndpointConfig{Name: "b", Capacity: 2}, reg)
	l := Local{a, b}
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Invoke("block", nil)
	}()
	for a.Running() == 0 && b.Running() == 0 {
		time.Sleep(time.Millisecond)
	}
	if b.Running() != 0 {
		t.Fatal("a tie between idle endpoints did not go to the first")
	}
	if _, err := l.Invoke("quick", nil); err != nil {
		t.Fatal(err)
	}
	if b.Invocations() != 1 {
		t.Fatal("least-loaded did not avoid the busy endpoint")
	}
	close(block)
	<-done
}

// TestLocalSeesWaiters: two full endpoints without admission control,
// where only a has callers waiting for a slot. Their waiters are a's
// backlog, so Local sends the next call to b.
func TestLocalSeesWaiters(t *testing.T) {
	reg := faas.NewRegistry()
	block := make(chan struct{})
	reg.Register("block", func([]byte) ([]byte, error) { <-block; return nil, nil })
	a := faas.NewEndpoint(faas.EndpointConfig{Name: "a", Capacity: 1}, reg)
	b := faas.NewEndpoint(faas.EndpointConfig{Name: "b", Capacity: 1}, reg)
	var wg sync.WaitGroup
	for _, ep := range []*faas.Endpoint{a, a, a, b} { // a: one running, two waiting
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Invoke("block", nil)
		}()
	}
	// Two seconds is ample for the four callers to arrive; past it, the
	// pick below reports what it saw.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if a.Running() == 1 && b.Running() == 1 && a.QueueDepth() == 2 {
			break
		}
	}
	if got := (Local{a, b}).pick(); got != b {
		t.Fatalf("Local picked %s (a: %d running, %d waiting; b: %d running)",
			got.Name(), a.Running(), a.QueueDepth(), b.Running())
	}
	close(block)
	wg.Wait()
}

// TestLocalConcurrentMixedWorkload: 200 concurrent calls through Local,
// one at a time and batched, all succeed and each runs exactly once.
func TestLocalConcurrentMixedWorkload(t *testing.T) {
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	l := make(Local, 3)
	for i := range l {
		l[i] = faas.NewEndpoint(faas.EndpointConfig{
			Name: fmt.Sprintf("ep%d", i), Capacity: 4, WarmTTL: time.Minute,
		}, reg)
	}
	var wg sync.WaitGroup
	const calls = 200
	var failures atomic.Int64
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				_, err = l.Invoke("echo", []byte("x"))
			} else {
				_, err = l.InvokeBatch("echo", [][]byte{[]byte("x")})
			}
			if err != nil {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d failures", failures.Load())
	}
	total := int64(0)
	for _, ep := range l {
		total += ep.Invocations()
	}
	if total != calls {
		t.Fatalf("total invocations = %d, want %d", total, calls)
	}
}
