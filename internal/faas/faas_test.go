package faas

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"continuum/internal/metrics"
)

// countingTarget counts the batches a Batcher hands to its endpoint.
type countingTarget struct {
	ep      *Endpoint
	batches atomic.Int64
}

func (c *countingTarget) InvokeBatch(fn string, payloads [][]byte) ([][]byte, error) {
	c.batches.Add(1)
	return c.ep.InvokeBatch(fn, payloads)
}

// warmCount returns the current warm-pool size for fn.
func warmCount(ep *Endpoint, fn string) int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if p := ep.warm[fn]; p != nil {
		return len(p.idle)
	}
	return 0
}

func echoRegistry() *Registry {
	reg := NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("fail", func(p []byte) ([]byte, error) { return nil, errors.New("handler error") })
	reg.Register("double", func(p []byte) ([]byte, error) { return append(p, p...), nil })
	return reg
}

func newTestEndpoint(capacity int, cold time.Duration) *Endpoint {
	return NewEndpoint(EndpointConfig{
		Name: "ep", Capacity: capacity, ColdStart: cold, WarmTTL: time.Minute,
	}, echoRegistry())
}

func TestRegistryRegisterLookup(t *testing.T) {
	reg := echoRegistry()
	if _, ok := reg.Lookup("echo"); !ok {
		t.Fatal("echo not found")
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Fatal("phantom function")
	}
	if len(reg.Names()) != 3 {
		t.Fatalf("Names = %v", reg.Names())
	}
}

func TestRegistryNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler accepted")
		}
	}()
	NewRegistry().Register("x", nil)
}

func TestInvokeEcho(t *testing.T) {
	ep := newTestEndpoint(2, 0)
	out, err := ep.Invoke("echo", []byte("hi"))
	if err != nil || !bytes.Equal(out, []byte("hi")) {
		t.Fatalf("Invoke = %q, %v", out, err)
	}
	if ep.Invocations() != 1 {
		t.Fatalf("Invocations = %d", ep.Invocations())
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	if _, err := ep.Invoke("nope", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeHandlerError(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	if _, err := ep.Invoke("fail", nil); err == nil {
		t.Fatal("handler error swallowed")
	}
}

func TestColdThenWarm(t *testing.T) {
	// The claim is that a warm hit skips the cold-start cost. Both halves
	// are read off guarantees, not compared wall-clock durations: the
	// cold call sleeps the configured cold start, so it takes at least
	// that long, and the warm call is counted as a warm hit and pays no
	// cold start.
	const cold = 5 * time.Millisecond
	ep := newTestEndpoint(1, cold)
	start := time.Now()
	ep.Invoke("echo", nil)
	if d := time.Since(start); d < cold {
		t.Fatalf("cold call took %v, less than its %v cold start", d, cold)
	}
	if ep.ColdStarts() != 1 || ep.WarmHits() != 0 {
		t.Fatalf("cold/warm = %d/%d after first call", ep.ColdStarts(), ep.WarmHits())
	}
	ep.Invoke("echo", nil)
	if ep.ColdStarts() != 1 || ep.WarmHits() != 1 {
		t.Fatalf("cold/warm = %d/%d after second call, want 1/1: the warm call paid a cold start", ep.ColdStarts(), ep.WarmHits())
	}
}

// TestWarmInvokeAllocatesNothing: with no metrics and no spans, a warm
// Invoke allocates nothing — the warm pool parks idle times in a slice it
// reuses and the inline execute path builds no closure.
func TestWarmInvokeAllocatesNothing(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	payload := []byte("x")
	if _, err := ep.Invoke("echo", payload); err != nil { // the cold start
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { ep.Invoke("echo", payload) }); a != 0 {
		t.Fatalf("warm Invoke allocated %v times, want 0", a)
	}
	if ep.ColdStarts() != 1 {
		t.Fatalf("%d cold starts, want 1: the measured invokes were not warm", ep.ColdStarts())
	}
}

// BenchmarkEndpointInvoke is the warm in-process invoke: no wire, no
// metrics, no spans.
func BenchmarkEndpointInvoke(b *testing.B) {
	ep := newTestEndpoint(1, 0)
	payload := []byte("x")
	if _, err := ep.Invoke("echo", payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ep.Invoke("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWarmPoolsArePerFunction(t *testing.T) {
	ep := newTestEndpoint(2, 0)
	ep.Invoke("echo", nil)
	ep.Invoke("double", []byte("x"))
	if ep.ColdStarts() != 2 {
		t.Fatalf("ColdStarts = %d, want 2 (per-function pools)", ep.ColdStarts())
	}
	if warmCount(ep, "echo") != 1 || warmCount(ep, "double") != 1 {
		t.Fatal("warm pools wrong")
	}
}

func TestWarmTTLExpiry(t *testing.T) {
	ep := NewEndpoint(EndpointConfig{
		Name: "ep", Capacity: 1, ColdStart: 0, WarmTTL: time.Millisecond,
	}, echoRegistry())
	ep.Invoke("echo", nil)
	time.Sleep(5 * time.Millisecond)
	ep.Invoke("echo", nil)
	if ep.ColdStarts() != 2 {
		t.Fatalf("ColdStarts = %d, want 2 (TTL expiry)", ep.ColdStarts())
	}
}

func TestCapacityLimitsConcurrency(t *testing.T) {
	reg := NewRegistry()
	var active, peak int64
	reg.Register("slow", func([]byte) ([]byte, error) {
		cur := atomic.AddInt64(&active, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&active, -1)
		return nil, nil
	})
	ep := NewEndpoint(EndpointConfig{Name: "ep", Capacity: 3}, reg)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Invoke("slow", nil)
		}()
	}
	wg.Wait()
	if p := atomic.LoadInt64(&peak); p > 3 {
		t.Fatalf("peak concurrency %d > capacity 3", p)
	}
}

func TestCloseRejectsInvocations(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	ep.Close()
	if _, err := ep.Invoke("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeBatchAmortizesColdStart(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	outs, err := ep.InvokeBatch("echo", payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 || !bytes.Equal(outs[1], []byte("b")) {
		t.Fatalf("outs = %q", outs)
	}
	if ep.ColdStarts() != 1 {
		t.Fatalf("ColdStarts = %d, want 1 for whole batch", ep.ColdStarts())
	}
	if ep.Invocations() != 3 {
		t.Fatalf("Invocations = %d", ep.Invocations())
	}
}

func TestBatcherGroupsCalls(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	target := &countingTarget{ep: ep}
	b := NewBatcher(target, 4, 50*time.Millisecond)
	defer b.Close()
	var wg sync.WaitGroup
	outs := make([][]byte, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := b.Invoke("echo", []byte{byte('a' + i)})
			if err != nil {
				t.Errorf("invoke %d: %v", i, err)
			}
			outs[i] = out
		}()
	}
	wg.Wait()
	for i := range outs {
		if !bytes.Equal(outs[i], []byte{byte('a' + i)}) {
			t.Fatalf("out[%d] = %q", i, outs[i])
		}
	}
	if n := target.batches.Load(); n != 1 {
		t.Fatalf("%d batches, want 1 full batch", n)
	}
	if ep.ColdStarts() != 1 {
		t.Fatalf("ColdStarts = %d, want 1", ep.ColdStarts())
	}
}

func TestBatcherTimeoutFlush(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	b := NewBatcher(ep, 100, 5*time.Millisecond)
	defer b.Close()
	start := time.Now()
	out, err := b.Invoke("echo", []byte("solo"))
	if err != nil || !bytes.Equal(out, []byte("solo")) {
		t.Fatalf("Invoke = %q, %v", out, err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("timeout flush took far too long")
	}
}

func TestBatcherPerFunctionBatches(t *testing.T) {
	target := &countingTarget{ep: newTestEndpoint(2, 0)}
	b := NewBatcher(target, 2, 10*time.Millisecond)
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); b.Invoke("echo", []byte("e")) }()
		wg.Add(1)
		go func() { defer wg.Done(); b.Invoke("double", []byte("d")) }()
	}
	wg.Wait()
	if n := target.batches.Load(); n != 2 {
		t.Fatalf("%d batches, want 2 (one per function)", n)
	}
}

func TestBatcherCloseRejects(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	b := NewBatcher(ep, 2, time.Millisecond)
	b.Close()
	if _, err := b.Invoke("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestBatcherErrorFansOut(t *testing.T) {
	ep := newTestEndpoint(1, 0)
	b := NewBatcher(ep, 2, time.Millisecond)
	defer b.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = b.Invoke("fail", nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("call %d missing batch error", i)
		}
	}
}

// TestConcurrentMixedWorkload: 200 concurrent calls of two functions
// over three endpoints that share a registry each return their own
// answer and run exactly once.
func TestConcurrentMixedWorkload(t *testing.T) {
	reg := echoRegistry()
	eps := make([]*Endpoint, 3)
	for i := range eps {
		eps[i] = NewEndpoint(EndpointConfig{
			Name: fmt.Sprintf("ep%d", i), Capacity: 4, WarmTTL: time.Minute,
		}, reg)
	}
	var wg sync.WaitGroup
	const calls = 200
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn, in, want := "echo", []byte{byte(i)}, []byte{byte(i)}
			if i%2 == 1 {
				fn, want = "double", []byte{byte(i), byte(i)}
			}
			if out, err := eps[i%len(eps)].Invoke(fn, in); err != nil || !bytes.Equal(out, want) {
				t.Errorf("call %d: %s = %v, %v; want %v", i, fn, out, err, want)
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for _, ep := range eps {
		total += ep.Invocations()
	}
	if total != calls {
		t.Fatalf("total invocations = %d, want %d", total, calls)
	}
}

// TestPreemptAbandonedFreesSlot: with PreemptAbandoned, cancelling a
// caller must free the capacity slot immediately — a waiting invocation
// proceeds while the abandoned handler is still running — and the late
// handler's own cleanup must not double-release the slot.
func TestPreemptAbandonedFreesSlot(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	reg := NewRegistry()
	reg.Register("hang", func([]byte) ([]byte, error) {
		started.Done()
		<-release
		return []byte("late"), nil
	})
	reg.Register("quick", func(p []byte) ([]byte, error) { return p, nil })
	ep := NewEndpoint(EndpointConfig{
		Name: "ep", Capacity: 1, WarmTTL: time.Minute, PreemptAbandoned: true,
	}, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)
	preempted := m.Counter(metrics.Label("faas_preempted_total", "ep", "ep", "fn", "hang"))

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ep.InvokeContext(ctx, "hang", nil)
		errc <- err
	}()
	started.Wait()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled invocation returned %v", err)
	}
	if preempted.Value() != 1 {
		t.Fatalf("faas_preempted_total = %d, want 1", preempted.Value())
	}

	// The slot must already be free even though "hang" is still running.
	qctx, qcancel := context.WithTimeout(context.Background(), time.Second)
	defer qcancel()
	if out, err := ep.InvokeContext(qctx, "quick", []byte("go")); err != nil || string(out) != "go" {
		t.Fatalf("post-preemption invoke = %q, %v — slot not freed", out, err)
	}

	// Let the abandoned handler finish; its cleanup must NOT release the
	// slot a second time. If it did, capacity 1 would admit two
	// concurrent handlers below.
	close(release)
	time.Sleep(10 * time.Millisecond)
	var active, peak int64
	reg.Register("probe", func([]byte) ([]byte, error) {
		cur := atomic.AddInt64(&active, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		atomic.AddInt64(&active, -1)
		return nil, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Invoke("probe", nil)
		}()
	}
	wg.Wait()
	if p := atomic.LoadInt64(&peak); p > 1 {
		t.Fatalf("peak concurrency %d > capacity 1 — preemption double-released the slot", p)
	}
}

// TestExecTimeoutDoesNotPreempt: ExecTimeout abandonment often means a
// wedged handler, so even with PreemptAbandoned the slot must stay held
// until the handler actually returns — otherwise timeouts oversubscribe
// the endpoint.
func TestExecTimeoutDoesNotPreempt(t *testing.T) {
	release := make(chan struct{})
	reg := NewRegistry()
	reg.Register("wedge", func([]byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	reg.Register("quick", func(p []byte) ([]byte, error) { return p, nil })
	ep := NewEndpoint(EndpointConfig{
		Name: "ep", Capacity: 1, WarmTTL: time.Minute,
		ExecTimeout: 10 * time.Millisecond, PreemptAbandoned: true,
	}, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)

	if _, err := ep.Invoke("wedge", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wedged invoke returned %v, want deadline exceeded", err)
	}
	if c := m.Counter(metrics.Label("faas_preempted_total", "ep", "ep", "fn", "wedge")); c.Value() != 0 {
		t.Fatalf("faas_preempted_total = %d after ExecTimeout, want 0", c.Value())
	}

	// The wedged handler still owns the slot: a bounded wait must fail.
	qctx, qcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer qcancel()
	if _, err := ep.InvokeContext(qctx, "quick", nil); err == nil {
		t.Fatal("invoke proceeded while a timed-out handler held the slot")
	}

	// Once the handler returns, the slot comes back.
	close(release)
	qctx2, qcancel2 := context.WithTimeout(context.Background(), time.Second)
	defer qcancel2()
	if out, err := ep.InvokeContext(qctx2, "quick", []byte("ok")); err != nil || string(out) != "ok" {
		t.Fatalf("invoke after handler return = %q, %v", out, err)
	}
}
