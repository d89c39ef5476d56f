package continuum_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/trace"
	"continuum/internal/wire"
)

// overloadEndpoint assembles an in-process continuumd, with admission
// control when admission is set — the composition `continuumd
// -max-queue` builds from flags. The "work" function sleeps workDur then
// echoes, so capacity is the only throughput limit and queue waits are
// predictable. Traced requests leave their server, queue-wait and exec
// spans in the returned store.
func overloadEndpoint(t *testing.T, capacity, maxQueue int, workDur time.Duration, admission bool) (*faas.Endpoint, string, *trace.SpanStore) {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("work", func(p []byte) ([]byte, error) {
		time.Sleep(workDur)
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "overloaded", Capacity: capacity, WarmTTL: time.Minute,
		QueueWait: 2 * time.Second,
		Admission: faas.AdmissionConfig{
			Enabled:         admission,
			MaxQueue:        maxQueue,
			TargetQueueWait: 5 * time.Millisecond,
			MinSlots:        capacity, // pin the pool: the gate measures admission, not elasticity
			RetryAfterFloor: time.Millisecond,
		},
	}, reg)
	spans := trace.NewSpanStore(1 << 14)
	ep.SetSpans(spans)
	srv := &wire.Server{
		Invoker: ep, Batcher: ep, Registry: reg,
		Endpoints: []*faas.Endpoint{ep}, Spans: spans,
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close(); ep.Close() })
	return ep, lis.Addr().String(), spans
}

func p99(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)*99/100]
}

// TestE2EOverloadGracefulDegradation is the overload-control claim end
// to end: a 10x flash crowd against an admission-controlled endpoint
// must degrade gracefully —
//
//   - zero accepted requests lost: every request either completes with
//     the right bytes or is rejected with the overload error; nothing
//     hangs, nothing fails any other way;
//   - shed requests fail FAST (far under the 2s QueueWait), marked
//     retryable, and carry a Retry-After hint for client backpressure;
//   - high-priority work stays usable: under the crowd a high-priority
//     call is an unloaded call plus its wait for a slot, and that sum,
//     at the p99 of each, stays within 3x the unloaded p99.
//
// The wait is the queue span the endpoint records around the gate for
// each traced high-priority call: what the admitter makes it wait, not
// the client's wall time. Wall time also counts every client and wire
// goroutine's scheduling on a loaded host, so a bound on it flakes under
// -race; the wall-time p99 is logged. One crowd completes only 28–39
// high-priority calls, whose p99 is their slowest, so the crowd comes
// again until at least minHigh have completed and the p99 is no longer
// one sample.
func TestE2EOverloadGracefulDegradation(t *testing.T) {
	checkGoroutines(t)
	// Work long enough that execution dominates scheduler noise (the -race
	// detector roughly doubles goroutine overheads); the p99 bound below
	// would flake if queueing jitter were comparable to workDur.
	const (
		capacity  = 4
		workDur   = 12 * time.Millisecond
		workers   = 40 // 10x the endpoint's capacity
		perWkr    = 5
		minHigh   = 100 // completed high-priority calls the p99 is taken over
		maxRounds = 20
	)
	ep, addr, spans := overloadEndpoint(t, capacity, capacity, workDur, true)

	dial := func() *wire.Client {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	// Unloaded baseline: serial high-priority calls on an idle endpoint,
	// enough of them that p99 is not the slowest call (over 50 it was,
	// so one scheduler hiccup set the bound).
	base := dial()
	highCtx := faas.WithPriority(context.Background(), faas.PriorityHigh)
	var baseLats []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := base.InvokeContext(highCtx, "work", []byte("warm")); err != nil {
			t.Fatalf("baseline call failed: %v", err)
		}
		baseLats = append(baseLats, time.Since(t0))
	}
	baseP99 := p99(baseLats)

	// Flash crowd: 10x capacity in concurrent workers, priorities mixed
	// round-robin. Raw clients (no retry) so sheds surface as errors.
	var mu sync.Mutex
	var highLats []time.Duration
	var completed, shed int
	var failure error
	fail := func(err error) {
		if failure == nil {
			failure = err
		}
	}
	priorities := []faas.Priority{faas.PriorityLow, faas.PriorityNormal, faas.PriorityHigh}
	clients := make([]*wire.Client, workers)
	for w := range clients {
		clients[w] = dial()
	}
	crowd := func() {
		var wg sync.WaitGroup
		for w, c := range clients {
			prio := priorities[w%len(priorities)]
			ctx := faas.WithPriority(context.Background(), prio)
			if prio == faas.PriorityHigh {
				ctx = trace.NewContext(ctx, trace.SpanContext{TraceID: trace.NewTraceID()})
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWkr; i++ {
					payload := fmt.Sprintf("req-%p-%d", c, i)
					t0 := time.Now()
					out, err := c.InvokeContext(ctx, "work", []byte(payload))
					elapsed := time.Since(t0)
					mu.Lock()
					switch {
					case err == nil:
						if string(out) != payload {
							fail(fmt.Errorf("accepted request corrupted: got %q want %q", out, payload))
						}
						completed++
						if prio == faas.PriorityHigh {
							highLats = append(highLats, elapsed)
						}
					default:
						var re *wire.RemoteError
						if !errors.As(err, &re) || !re.Retryable {
							fail(fmt.Errorf("non-retryable failure under overload: %v", err))
							break
						}
						if re.RetryAfter() <= 0 {
							fail(fmt.Errorf("shed response missing Retry-After hint: %v", err))
							break
						}
						if elapsed > 500*time.Millisecond {
							fail(fmt.Errorf("shed took %v; rejections must fail fast, not wait out QueueWait", elapsed))
							break
						}
						shed++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	rounds := 0
	for ; len(highLats) < minHigh; rounds++ {
		if rounds == maxRounds {
			t.Fatalf("%d crowds completed only %d high-priority calls", rounds, len(highLats))
		}
		crowd()
		if failure != nil {
			t.Fatal(failure)
		}
	}
	total := rounds * workers * perWkr
	if completed+shed != total {
		t.Fatalf("accounting: %d completed + %d shed != %d sent", completed, shed, total)
	}
	if shed == 0 {
		t.Fatal("10x crowd shed nothing; the endpoint is not actually overloaded")
	}
	if completed == 0 {
		t.Fatal("admission starved the endpoint completely")
	}
	// The endpoint's own books must agree with the client's view: every
	// accepted request completed, every rejection is accounted as shed,
	// and low priority shed at least as much as high.
	byPrio := ep.ShedByPriority()
	if got := byPrio[0] + byPrio[1] + byPrio[2]; got != int64(shed) {
		t.Fatalf("endpoint counted %d shed, clients saw %d", got, shed)
	}
	if byPrio[0] < byPrio[faas.NumPriorities-1] {
		t.Fatalf("shedding not lowest-first: %v", byPrio)
	}
	if len(highLats) == 0 {
		t.Fatal("no high-priority request survived the crowd")
	}
	var highWaits []time.Duration
	for _, sp := range spans.Snapshot() {
		if sp.Kind == trace.KindQueue && sp.Err == "" {
			highWaits = append(highWaits, sp.Duration())
		}
	}
	if len(highWaits) != len(highLats) {
		t.Fatalf("%d queue spans for %d completed high-priority calls", len(highWaits), len(highLats))
	}
	waitP99 := p99(highWaits)
	t.Logf("high priority under %d crowds: %d calls, wall p99 %v, queue-wait p99 %v; unloaded p99 %v",
		rounds, len(highLats), p99(highLats), waitP99, baseP99)
	if baseP99+waitP99 > 3*baseP99 {
		t.Fatalf("high-priority queue-wait p99 %v on the unloaded p99 %v exceeds 3x that baseline", waitP99, baseP99)
	}
}

// TestE2EAdmissionGoodputBeatsNoAdmission is the goodput claim of
// overload control: under a sustained flash crowd — 64 callers against 4
// slots of 5 ms work — admission control must deliver at least twice the
// goodput (completions inside a 50 ms SLO per second) of the same
// endpoint without it. Without admission every request queues toward
// QueueWait, so once the queue builds almost nothing finishes in time;
// with it the excess is shed fail-fast, callers honour the Retry-After
// hint, and accepted requests keep finishing inside the SLO.
func TestE2EAdmissionGoodputBeatsNoAdmission(t *testing.T) {
	checkGoroutines(t)
	const (
		capacity = 4
		callers  = 64
		workDur  = 5 * time.Millisecond
		slo      = 50 * time.Millisecond
		arm      = time.Second
	)
	goodput := func(admission bool) float64 {
		_, addr, _ := overloadEndpoint(t, capacity, 2*capacity, workDur, admission)
		var mu sync.Mutex
		var withinSLO int
		var failure error
		deadline := time.Now().Add(arm)
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			c, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					t0 := time.Now()
					_, err := c.InvokeContext(context.Background(), "work", []byte("x"))
					elapsed := time.Since(t0)
					var re *wire.RemoteError
					switch {
					case err == nil:
						if elapsed <= slo {
							mu.Lock()
							withinSLO++
							mu.Unlock()
						}
					case errors.As(err, &re) && re.Retryable:
						time.Sleep(re.RetryAfter())
					default:
						mu.Lock()
						if failure == nil {
							failure = err
						}
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		if failure != nil {
			t.Fatalf("admission=%v: %v", admission, failure)
		}
		return float64(withinSLO) / arm.Seconds()
	}
	off := goodput(false)
	on := goodput(true)
	ratio := on / off
	t.Logf("goodput: admission %.0f/s, no admission %.0f/s, ratio %.1fx", on, off, ratio)
	if on == 0 || on < 2*off {
		t.Fatalf("admission goodput %.0f/s is not at least 2x no-admission %.0f/s", on, off)
	}
}
