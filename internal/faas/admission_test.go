package faas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"continuum/internal/metrics"
)

// admissionEndpoint builds an endpoint with admission control enabled
// and a controllable "gate" handler: each gate invocation blocks until
// the test releases it, so the test decides exactly when slots free up.
// queueLimit returns a's current adaptive queue bound.
func queueLimit(a *admitter) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.qLimit
}

func admissionEndpoint(t *testing.T, cfg EndpointConfig) (*Endpoint, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	reg := NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("gate", func(p []byte) ([]byte, error) {
		<-gate
		return p, nil
	})
	if cfg.Name == "" {
		cfg.Name = "adm"
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 1
	}
	cfg.Admission.Enabled = true
	ep := NewEndpoint(cfg, reg)
	t.Cleanup(ep.Close)
	return ep, gate
}

// fillSlots occupies every elastic slot with gate invocations and waits
// until they are all running.
func fillSlots(t *testing.T, ep *Endpoint, n int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Invoke("gate", nil)
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for ep.Running() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("slots never filled: running %d want %d", ep.Running(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return &wg
}

// TestAdmissionShedImmediateWithRetryAfter: once the queue watermark for
// a class is hit, an arrival is rejected right away — microseconds, not
// QueueWait — with an OverloadError carrying a positive Retry-After and
// no context sentinel.
func TestAdmissionShedImmediateWithRetryAfter(t *testing.T) {
	ep, gate := admissionEndpoint(t, EndpointConfig{
		Capacity:  1,
		QueueWait: time.Second,
		Admission: AdmissionConfig{MaxQueue: 3, MinSlots: 1},
	})
	defer close(gate)
	fillSlots(t, ep, 1)

	// The low class's watermark is MaxQueue/3 = 1: first low queues,
	// second low sheds instantly.
	ctx := WithPriority(context.Background(), PriorityLow)
	go ep.InvokeContext(ctx, "echo", nil) // queues (released when gate closes)
	waitQueued(t, ep, 1)

	start := time.Now()
	_, err := ep.InvokeContext(ctx, "echo", nil)
	elapsed := time.Since(start)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed error does not unwrap to ErrOverloaded: %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shed error wraps context.DeadlineExceeded: %v", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v, want immediate (QueueWait is 1s)", elapsed)
	}
	if shed := ep.ShedByPriority(); shed[0]+shed[1]+shed[2] != 1 {
		t.Fatalf("ShedByPriority() = %v, want one shed", shed)
	}
}

func waitQueued(t *testing.T, ep *Endpoint, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for ep.QueueDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, ep.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionEvictsLowerPriority: a high-priority arrival hitting a
// full queue displaces a queued low-priority request instead of being
// rejected — lowest-priority-first shedding.
func TestAdmissionEvictsLowerPriority(t *testing.T) {
	ep, gate := admissionEndpoint(t, EndpointConfig{
		Capacity:  1,
		QueueWait: 5 * time.Second,
		Admission: AdmissionConfig{MaxQueue: 3, MinSlots: 1},
	})
	fillSlots(t, ep, 1)

	lowErr := make(chan error, 1)
	go func() {
		_, err := ep.InvokeContext(WithPriority(context.Background(), PriorityLow), "echo", nil)
		lowErr <- err
	}()
	waitQueued(t, ep, 1)

	// Fill the rest of the queue with high-priority waiters (their
	// watermark is the whole bound, so they queue without evicting),
	// then arrive one more high: the queue is at its hard bound, and the
	// arrival must displace the queued low instead of being rejected.
	for i := 0; i < 2; i++ {
		go ep.InvokeContext(WithPriority(context.Background(), PriorityHigh), "echo", nil)
		waitQueued(t, ep, 2+i)
	}

	highDone := make(chan error, 1)
	go func() {
		_, err := ep.InvokeContext(WithPriority(context.Background(), PriorityHigh), "echo", nil)
		highDone <- err
	}()

	select {
	case err := <-lowErr:
		var oe *OverloadError
		if !errors.As(err, &oe) || !oe.Evicted {
			t.Fatalf("low-priority waiter got %v, want evicted OverloadError", err)
		}
		if oe.RetryAfter <= 0 {
			t.Fatalf("evicted RetryAfter = %v", oe.RetryAfter)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("low-priority waiter was not evicted")
	}

	// Release the pool: the high-priority request must complete.
	close(gate)
	if err := <-highDone; err != nil {
		t.Fatalf("high-priority invoke after eviction: %v", err)
	}
}

// TestAdmissionGrantsHighestFirst: when a slot frees, the queued
// high-priority request runs before earlier-queued low-priority ones.
// With Capacity 1 the slot hands off serially, so handler execution
// order IS grant order.
func TestAdmissionGrantsHighestFirst(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	reg := NewRegistry()
	reg.Register("gate", func(p []byte) ([]byte, error) {
		<-gate
		return p, nil
	})
	reg.Register("mark", func(p []byte) ([]byte, error) {
		mu.Lock()
		order = append(order, string(p))
		mu.Unlock()
		return p, nil
	})
	ep := NewEndpoint(EndpointConfig{
		Name: "adm", Capacity: 1, QueueWait: 5 * time.Second,
		Admission: AdmissionConfig{Enabled: true, MaxQueue: 12, MinSlots: 1},
	}, reg)
	defer ep.Close()
	fillSlots(t, ep, 1)

	var done sync.WaitGroup
	for i, job := range []struct {
		p     Priority
		label string
	}{{PriorityLow, "low"}, {PriorityHigh, "high"}} {
		done.Add(1)
		go func(p Priority, label string) {
			defer done.Done()
			if _, err := ep.InvokeContext(WithPriority(context.Background(), p), "mark", []byte(label)); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}(job.p, job.label)
		waitQueued(t, ep, i+1) // low must be queued before high arrives
	}

	close(gate) // free the slot; the queue drains serially
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("grant order = %v, want high first", order)
	}
}

// TestAdmissionQueueWaitIsOverload: a queued request whose QueueWait
// expires under admission control gets an overload shed (with
// Retry-After), not a deadline error.
func TestAdmissionQueueWaitIsOverload(t *testing.T) {
	ep, gate := admissionEndpoint(t, EndpointConfig{
		Capacity:  1,
		QueueWait: 30 * time.Millisecond,
		Admission: AdmissionConfig{MaxQueue: 6, MinSlots: 1},
	})
	defer close(gate)
	fillSlots(t, ep, 1)

	_, err := ep.Invoke("echo", nil)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queue-wait shed wraps context.DeadlineExceeded: %v", err)
	}
	if ep.QueueDepth() != 0 {
		t.Fatalf("timed-out waiter leaked: depth %d", ep.QueueDepth())
	}
}

// TestPlainGateQueuesFIFO: without admission control the gate still
// queues its waiters where QueueDepth and the faas_queue_depth gauge
// see them, and grants them in arrival order whatever their priority.
func TestPlainGateQueuesFIFO(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	reg := NewRegistry()
	reg.Register("gate", func(p []byte) ([]byte, error) {
		<-gate
		return p, nil
	})
	reg.Register("mark", func(p []byte) ([]byte, error) {
		mu.Lock()
		order = append(order, string(p))
		mu.Unlock()
		return p, nil
	})
	ep := NewEndpoint(EndpointConfig{Name: "plain", Capacity: 1}, reg)
	defer ep.Close()
	m := metrics.NewRegistry()
	ep.SetMetrics(m)
	fillSlots(t, ep, 1)

	var done sync.WaitGroup
	for i, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		done.Add(1)
		go func() {
			defer done.Done()
			if _, err := ep.InvokeContext(WithPriority(context.Background(), p), "mark", []byte(p.String())); err != nil {
				t.Errorf("%v: %v", p, err)
			}
		}()
		waitQueued(t, ep, i+1)
	}
	if got := ep.QueueDepth(); got != 3 {
		t.Fatalf("QueueDepth() = %d with three callers waiting, want 3", got)
	}
	if got := m.Gauge(metrics.Label("faas_queue_depth", "ep", "plain")).Value(); got != 3 {
		t.Fatalf("faas_queue_depth = %v, want 3", got)
	}
	close(gate)
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(order) != "[low normal high]" {
		t.Fatalf("grant order = %v, want arrival order", order)
	}
	if got := ep.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth() = %d after the drain", got)
	}
}

// TestAdmissionElasticPool exercises the admitter's grow/shrink policy
// directly: backlog grows the pool toward capacity, sustained idle
// releases shrink it back to the floor.
func TestAdmissionElasticPool(t *testing.T) {
	a := newAdmitter(AdmissionConfig{Enabled: true, MinSlots: 2, MaxQueue: 64}, 8)
	a.slots = 2 // pretend the pool already shrank to the floor

	ctx := context.Background()
	// Fill the 2 slots.
	for i := 0; i < 2; i++ {
		if err := a.acquire(ctx, "f", PriorityNormal, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Queue 4 (= queuePerSlot × slots): the next arrival grows the pool
	// and is admitted directly.
	errs := make(chan error, 8)
	for i := 0; i < queuePerSlot*2; i++ {
		go func() { errs <- a.acquire(ctx, "f", PriorityNormal, 0) }()
	}
	waitFor(t, func() bool { return a.QueueDepth() == queuePerSlot*2 })
	if err := a.acquire(ctx, "f", PriorityNormal, 0); err != nil {
		t.Fatalf("growth admission: %v", err)
	}
	if got := a.SlotLimit(); got != 3 {
		t.Fatalf("SlotLimit() = %d after growth, want 3", got)
	}

	// Drain everything, then release-cycle an idle pool: it shrinks back
	// to the floor, one slot per shrinkAfterIdle idle releases.
	for i := 0; i < queuePerSlot*2; i++ {
		a.release() // grants the queued waiters
	}
	for i := 0; i < queuePerSlot*2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		a.release() // now the pool is empty and idle
	}
	for i := 0; i < shrinkAfterIdle*2; i++ {
		if err := a.acquire(ctx, "f", PriorityNormal, 0); err != nil {
			t.Fatal(err)
		}
		a.release()
	}
	if got := a.SlotLimit(); got != 2 {
		t.Fatalf("SlotLimit() = %d after idling, want floor 2", got)
	}
}

// TestAdmissionAIMDClampsQueue: sustained queue waits above the target
// halve the effective queue bound; calm traffic grows it back.
func TestAdmissionAIMDClampsQueue(t *testing.T) {
	a := newAdmitter(AdmissionConfig{Enabled: true, MaxQueue: 48, TargetQueueWait: 10 * time.Millisecond}, 4)
	for i := 0; i < aimdEvery; i++ {
		a.observeWait(100 * time.Millisecond) // 10× over target
	}
	if got := queueLimit(a); got != 24 {
		t.Fatalf("queue limit = %d after overload signal, want 24", got)
	}
	// EWMA decays as waits return to zero; the bound creeps back up.
	for i := 0; i < 40*aimdEvery; i++ {
		a.observeWait(0)
	}
	if got := queueLimit(a); got <= 24 {
		t.Fatalf("queue limit = %d after calm, want growth above 24", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCordonFinishesInFlight: a cordoned endpoint completes running
// invocations but rejects new ones with ErrCordoned until uncordoned.
func TestCordonFinishesInFlight(t *testing.T) {
	ep, gate := admissionEndpoint(t, EndpointConfig{Capacity: 2})
	inflight := make(chan error, 1)
	go func() {
		_, err := ep.Invoke("gate", []byte("x"))
		inflight <- err
	}()
	waitFor(t, func() bool { return ep.Running() == 1 })

	ep.SetCordon(true)
	if _, err := ep.Invoke("echo", nil); !errors.Is(err, ErrCordoned) {
		t.Fatalf("cordoned invoke err = %v, want ErrCordoned", err)
	}
	close(gate) // the in-flight request must still finish cleanly
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight invocation failed under cordon: %v", err)
	}
	ep.SetCordon(false)
	if _, err := ep.Invoke("echo", nil); err != nil {
		t.Fatalf("uncordoned invoke: %v", err)
	}
}

// TestAdmissionHammer is the -race gate for the admitter, run with
// admission control on and as the plain gate: a storm of concurrent
// invocations across all three priority classes, with a slice of
// callers abandoning via context, against a tiny endpoint. Invariants:
// every call resolves exactly one way, no more than Capacity handlers
// ever run at once, nothing leaks (no in-use slots or queued waiters
// remain), and accepted work all completes. With admission on, shedding
// is priority-ordered in aggregate (low sheds at least as often as
// high); the plain gate sheds nothing, since a QueueWait expiry there
// is not a shed.
func TestAdmissionHammer(t *testing.T) {
	for _, enabled := range []bool{true, false} {
		t.Run(fmt.Sprintf("enabled=%v", enabled), func(t *testing.T) { hammer(t, enabled) })
	}
}

func hammer(t *testing.T, enabled bool) {
	const capacity = 4
	var running, peak atomic.Int64
	reg := NewRegistry()
	reg.Register("spin", func(p []byte) ([]byte, error) {
		n := running.Add(1)
		for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
		return p, nil
	})
	ep := NewEndpoint(EndpointConfig{
		Name:      "hammer",
		Capacity:  capacity,
		QueueWait: 20 * time.Millisecond,
		Admission: AdmissionConfig{
			Enabled:         enabled,
			MaxQueue:        24,
			TargetQueueWait: time.Millisecond,
			MinSlots:        1,
		},
	}, reg)
	defer ep.Close()

	const (
		workers = 24
		perW    = 200
	)
	var ok, shed, cancelled [NumPriorities]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				p := Priority(rng.Intn(NumPriorities) - 1)
				cls := p.Class()
				ctx := WithPriority(context.Background(), p)
				var cancel context.CancelFunc
				if rng.Intn(10) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3))*time.Millisecond)
				}
				_, err := ep.InvokeContext(ctx, "spin", nil)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					ok[cls].Add(1)
				case errors.Is(err, ErrOverloaded):
					shed[cls].Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					cancelled[cls].Add(1)
				default:
					t.Errorf("unclassified error: %v", err)
				}
			}
		}(int64(w))
	}
	wg.Wait()

	var total, completed, rejected int64
	for cls := 0; cls < NumPriorities; cls++ {
		total += ok[cls].Load() + shed[cls].Load() + cancelled[cls].Load()
		completed += ok[cls].Load()
		rejected += shed[cls].Load()
	}
	if total != workers*perW {
		t.Fatalf("calls resolved %d ways, want %d", total, workers*perW)
	}
	if ep.QueueDepth() != 0 {
		t.Fatalf("leaked queued waiters: %d", ep.QueueDepth())
	}
	// A handler abandoned on a context deadline can still be finishing
	// when its worker returns.
	waitFor(t, func() bool { return ep.Running() == 0 })
	if got := ep.Running(); got != 0 {
		t.Fatalf("leaked running slots: %d", got)
	}
	if ep.adm.inUseNow() != 0 {
		t.Fatalf("leaked admitted slots: %d", ep.adm.inUseNow())
	}
	if p := peak.Load(); p > capacity {
		t.Fatalf("%d handlers ran at once, capacity %d", p, capacity)
	}
	if completed == 0 {
		t.Fatal("no call ever completed")
	}
	sb := ep.ShedByPriority()
	if enabled && rejected > 0 && sb[0] < sb[2] {
		t.Fatalf("shed by priority = %v: low must shed at least as much as high", sb)
	}
	if !enabled && sb != [NumPriorities]int64{} {
		t.Fatalf("plain gate counted sheds %v", sb)
	}
	t.Logf("hammer: ok=%v shed=%v cancelled=%v slots=%d peak=%d",
		loads(&ok), loads(&shed), loads(&cancelled), ep.SlotLimit(), peak.Load())
}

func loads(a *[NumPriorities]atomic.Int64) [NumPriorities]int64 {
	var out [NumPriorities]int64
	for i := range a {
		out[i] = a[i].Load()
	}
	return out
}

// inUseNow exposes the admitted-slot count for leak assertions.
func (a *admitter) inUseNow() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// TestPriorityContextRoundTrip pins the context carriage and class
// clamping the wire layer depends on.
func TestPriorityContextRoundTrip(t *testing.T) {
	if got := PriorityFromContext(context.Background()); got != PriorityNormal {
		t.Fatalf("default priority = %v", got)
	}
	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		if got := PriorityFromContext(WithPriority(context.Background(), p)); got != p {
			t.Fatalf("round trip %v = %v", p, got)
		}
	}
	if Priority(99).Class() != PriorityHigh.Class() || Priority(-99).Class() != PriorityLow.Class() {
		t.Fatal("out-of-range priorities must clamp")
	}
	names := map[Priority]string{PriorityLow: "low", PriorityNormal: "normal", PriorityHigh: "high"}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	var err error = &OverloadError{Fn: "f", Priority: PriorityLow, RetryAfter: 7 * time.Millisecond}
	if fmt.Sprintf("%v", err) == "" || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("OverloadError: %v", err)
	}
}
