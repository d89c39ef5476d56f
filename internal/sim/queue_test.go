package sim

import (
	"math"
	"math/rand"
	"testing"
)

// fired records one event execution for order comparison.
type fired struct {
	t  float64
	id int
}

// driveBoth replays the same schedule/cancel script against a calendar
// kernel and a heap-reference kernel and asserts identical fire order —
// including same-time seq tie-breaks — and identical final state.
//
// The script is a function of (kernel, recorder) so callbacks can
// schedule follow-up events; determinism of the script itself comes from
// seeding its RNG identically for both kernels.
func driveBoth(t *testing.T, name string, script func(k *Kernel, rng *rand.Rand, rec func(id int))) {
	t.Helper()
	run := func(kind QueueKind) ([]fired, *Kernel) {
		k := NewKernelQueue(kind)
		var got []fired
		script(k, rand.New(rand.NewSource(99)), func(id int) {
			got = append(got, fired{t: k.Now(), id: id})
		})
		k.Run()
		return got, k
	}
	cal, ck := run(QueueCalendar)
	ref, hk := run(QueueHeap)
	if len(cal) != len(ref) {
		t.Fatalf("%s: calendar fired %d events, heap reference fired %d", name, len(cal), len(ref))
	}
	for i := range cal {
		if cal[i] != ref[i] {
			t.Fatalf("%s: divergence at event %d: calendar %+v, heap %+v", name, i, cal[i], ref[i])
		}
	}
	if ck.Pending() != 0 || hk.Pending() != 0 {
		t.Fatalf("%s: leftover pending: calendar %d, heap %d", name, ck.Pending(), hk.Pending())
	}
	if ck.Now() != hk.Now() {
		t.Fatalf("%s: final clocks differ: calendar %v, heap %v", name, ck.Now(), hk.Now())
	}
}

// TestDifferentialCalendarVsHeap runs the calendar queue against the
// binary-heap reference over time distributions chosen to stress every
// calendar mechanism: uniform spread (bucket balance), same-time bursts
// (seq tie-breaks within one bucket), exponential gaps (resize churn),
// clustered storms (long bucket chains), a far-future outlier (the
// pathology that triggers the heap fallback), and cancel-heavy mixes
// (compaction during the comparison).
func TestDifferentialCalendarVsHeap(t *testing.T) {
	type dist struct {
		name string
		next func(rng *rand.Rand, i int) float64
	}
	dists := []dist{
		{"uniform", func(rng *rand.Rand, i int) float64 { return rng.Float64() * 1000 }},
		{"same-time-bursts", func(rng *rand.Rand, i int) float64 { return float64(i / 50) }},
		{"exponential", func(rng *rand.Rand, i int) float64 { return rng.ExpFloat64() * 10 }},
		{"clustered", func(rng *rand.Rand, i int) float64 {
			return float64(i%7)*1000 + rng.Float64()*1e-6
		}},
		{"far-future-outlier", func(rng *rand.Rand, i int) float64 {
			if i == 0 {
				return 1e9
			}
			return rng.Float64()
		}},
	}
	for _, d := range dists {
		d := d
		t.Run(d.name, func(t *testing.T) {
			driveBoth(t, d.name, func(k *Kernel, rng *rand.Rand, rec func(int)) {
				timers := make([]Timer, 0, 4096)
				for i := 0; i < 4096; i++ {
					id := i
					timers = append(timers, k.At(d.next(rng, i), func() { rec(id) }))
					// Cancel a random earlier timer every few inserts so
					// cancellation and compaction interleave with ordering.
					if i%5 == 0 {
						timers[rng.Intn(len(timers))].Cancel()
					}
				}
			})
		})
	}
}

// TestDifferentialCascading replays a self-perpetuating workload — every
// fired event schedules successors — so ordering is also compared for
// events scheduled *during* the run, where the calendar's hand is mid-
// sweep and resizes happen with the clock advanced.
func TestDifferentialCascading(t *testing.T) {
	driveBoth(t, "cascading", func(k *Kernel, rng *rand.Rand, rec func(int)) {
		remaining := 20000
		var spawn func(id int)
		spawn = func(id int) {
			k.After(rng.Float64(), func() {
				rec(id)
				if remaining > 0 {
					remaining--
					spawn(id + 1)
					if rng.Intn(8) == 0 && remaining > 0 {
						remaining--
						spawn(id + 100000)
					}
				}
			})
		}
		for i := 0; i < 64; i++ {
			spawn(i * 1000000)
		}
	})
}

// TestHeapFallbackTriggers proves the pathological distribution actually
// demotes the kernel: one far-future outlier stretches the resampled
// width so that tens of thousands of near-term events pile into a single
// bucket in random order, the per-op work average crosses the threshold,
// and the kernel switches to the heap — while still firing in exact
// (time, seq) order.
func TestHeapFallbackTriggers(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(7))
	k.At(1e9, func() {}) // the outlier dominating the sampled range
	var last float64 = -1
	n := 0
	for i := 0; i < 60000; i++ {
		k.At(rng.Float64(), func() {
			if k.Now() < last {
				t.Fatalf("out of order: %v after %v", k.Now(), last)
			}
			last = k.Now()
			n++
		})
	}
	if !k.onHeap {
		// The trigger may need dequeue work too; run and re-check below.
		t.Log("not yet on heap after inserts (dequeue work may trigger it)")
	}
	k.Run()
	if n != 60000 {
		t.Fatalf("fired %d of 60000 near-term events", n)
	}
	if !k.onHeap {
		t.Fatalf("pathological distribution did not trigger the heap fallback")
	}
}

// TestCancelCompactionFuzz hammers the compaction path: schedule far
// ahead, cancel most of it, and assert the cancelled records are
// physically removed (queue occupancy tracks live+dead) and the
// survivors still fire exactly once in order.
func TestCancelCompactionFuzz(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		type ev struct {
			tm        Timer
			cancelled bool
			id        int
		}
		var evs []ev
		for i := 0; i < 5000; i++ {
			id := i
			evs = append(evs, ev{tm: k.At(rng.Float64()*1e6, func() {
				if evs[id].cancelled {
					t.Fatalf("seed %d: cancelled event %d fired", seed, id)
				}
				evs[id].id = -1 // mark fired
			}), id: id})
		}
		// Cancel ~90% in random order.
		for _, i := range rng.Perm(len(evs)) {
			if rng.Float64() < 0.9 {
				if evs[i].tm.Cancel() {
					evs[i].cancelled = true
				}
			}
		}
		occupancy := k.cal.count
		if k.onHeap {
			occupancy = len(k.heap)
		}
		if occupancy != k.live+k.dead {
			t.Fatalf("seed %d: occupancy %d != live %d + dead %d", seed, occupancy, k.live, k.dead)
		}
		if k.dead > k.live && k.dead > compactMin {
			t.Fatalf("seed %d: compaction left dead %d > live %d", seed, k.dead, k.live)
		}
		k.Run()
		for i := range evs {
			if !evs[i].cancelled && evs[i].id != -1 {
				t.Fatalf("seed %d: surviving event %d never fired", seed, i)
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("seed %d: %d pending after drain", seed, k.Pending())
		}
	}
}

// TestStaleHandleAfterReuse proves the generation check: a handle whose
// record has been recycled into a *new* event must not cancel (or report
// pending for) the record's next tenant.
func TestStaleHandleAfterReuse(t *testing.T) {
	k := NewKernel()
	first := k.At(1, func() {})
	k.Run() // fires; the record returns to the freelist
	secondRan := false
	second := k.At(2, func() { secondRan = true })
	if second.idx != first.idx {
		t.Skip("freelist did not reuse the record (allocator changed?)")
	}
	if first.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if first.Cancel() {
		t.Fatal("stale handle cancelled the record's new tenant")
	}
	k.Run()
	if !secondRan {
		t.Fatal("second event did not fire (stale handle interfered)")
	}
}

func TestTimerPendingLifecycle(t *testing.T) {
	k := NewKernel()
	var zero Timer
	if zero.Pending() || zero.Cancel() {
		t.Fatal("zero Timer must be inert")
	}
	tm := k.At(5, func() {})
	if !tm.Pending() {
		t.Fatal("scheduled timer not pending")
	}
	tm.Cancel()
	if tm.Pending() {
		t.Fatal("cancelled timer still pending")
	}
	tm2 := k.At(6, func() {})
	k.Run()
	if tm2.Pending() {
		t.Fatal("fired timer still pending")
	}
}

func TestAtInfinityPanics(t *testing.T) {
	k := NewKernel()
	for _, bad := range []float64{math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%v) did not panic", bad)
				}
			}()
			k.At(bad, func() {})
		}()
	}
}

func TestPendingIsLiveCount(t *testing.T) {
	k := NewKernel()
	var tms []Timer
	for i := 0; i < 1000; i++ {
		tms = append(tms, k.At(float64(i), func() {}))
	}
	if k.Pending() != 1000 {
		t.Fatalf("Pending() = %d, want 1000", k.Pending())
	}
	for i := 0; i < 500; i++ {
		tms[i*2].Cancel()
	}
	if k.Pending() != 500 {
		t.Fatalf("Pending() = %d after cancels, want 500", k.Pending())
	}
	k.RunUntil(250)
	// Survivors are the odd times; 251..999 odd = 375 remain.
	if k.Pending() != 375 {
		t.Fatalf("Pending() = %d after partial run, want 375", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", k.Pending())
	}
}

func TestNextTime(t *testing.T) {
	k := NewKernel()
	if !math.IsInf(k.NextTime(), 1) {
		t.Fatal("empty kernel NextTime not +Inf")
	}
	a := k.At(7, func() {})
	k.At(9, func() {})
	if k.NextTime() != 7 {
		t.Fatalf("NextTime = %v, want 7", k.NextTime())
	}
	a.Cancel()
	if k.NextTime() != 9 {
		t.Fatalf("NextTime after cancel = %v, want 9", k.NextTime())
	}
}

// TestSteadyStateZeroAlloc asserts the tentpole acceptance criterion
// directly: once warmed, the schedule→fire cycle performs zero heap
// allocations per event.
func TestSteadyStateZeroAlloc(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(1))
	var hop func()
	hop = func() { k.After(rng.Float64(), hop) }
	for i := 0; i < 256; i++ {
		k.After(rng.Float64(), hop)
	}
	// Warm: let the pool and calendar reach steady state.
	k.RunUntil(5)
	// 256 hops with mean gap 0.5 fire ≈ 1000 events per 2 s of virtual time.
	allocs := testing.AllocsPerRun(10, func() { k.RunUntil(k.Now() + 2) })
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per ≈1000 events, want 0", allocs)
	}
}
