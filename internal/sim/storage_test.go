package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestKernelFillAllocations: records are held by value in pages, so
// filling a fresh kernel allocates per page and per calendar resize, not
// per event.
func TestKernelFillAllocations(t *testing.T) {
	const n = 100_000
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	allocs := testing.AllocsPerRun(3, func() {
		k := NewKernel()
		for _, at := range times {
			k.At(at, fn)
		}
		if k.Pending() != n {
			t.Fatalf("Pending() = %d, want %d", k.Pending(), n)
		}
	})
	// The kernel, the page table twice, ten doublings of the first page
	// and a second page, and eleven bucket arrays (64, then 256 up to
	// 256 Ki buckets): about 25. One allocation per event would be
	// 100 000.
	t.Logf("filling %d events allocates %.0f objects", n, allocs)
	if allocs > 64 {
		t.Fatalf("filling %d events allocates %.0f objects, want O(pages + resizes) ≤ 64", n, allocs)
	}
}

// TestSweepReusesParkedStorage: a sweep that builds, fills and drains
// one kernel per run runs each in the pages and bucket array the last
// run parked, so a run allocates only the Kernel itself. The pool keeps
// entries per P and drops some at random under the race detector, so
// the test takes the best of several runs.
func TestSweepReusesParkedStorage(t *testing.T) {
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, 2000)
	for i := range times {
		times[i] = rng.Float64() * 100
	}
	run := func() {
		k := NewKernel()
		for _, at := range times {
			k.At(at, fn)
		}
		if k.Run() != len(times) {
			t.Fatal("a run did not fire every event")
		}
	}
	best := math.Inf(1)
	for i := 0; i < 20; i++ {
		best = min(best, testing.AllocsPerRun(1, run))
	}
	if best > 1 {
		t.Fatalf("a run of a sweep allocates %v objects, want only its Kernel", best)
	}
}

// TestRebuildRefilesCancelledRecords: a calendar resize re-files every
// queued record, cancelled ones included, so they are still found,
// recycled and counted when the queue drains.
func TestRebuildRefilesCancelledRecords(t *testing.T) {
	k := NewKernel()
	fired := 0
	var tms []Timer
	for i := 0; i < 50; i++ {
		tms = append(tms, k.At(float64(i), func() { fired++ }))
	}
	for i := 0; i < 10; i++ { // below compactMin: they stay queued
		tms[i*5].Cancel()
	}
	for i := 0; i < 1000; i++ { // grows the calendar several times
		k.At(50+float64(i), func() { fired++ })
	}
	if k.cal.count != k.live+k.dead || k.dead != 10 {
		t.Fatalf("after resizes: %d records queued, live %d + dead %d (want dead 10)", k.cal.count, k.live, k.dead)
	}
	k.Run()
	if fired != 1040 || k.dead != 0 || k.cal.count != 0 {
		t.Fatalf("after drain: fired %d (want 1040), dead %d, queued %d", fired, k.dead, k.cal.count)
	}
	if k.pages != nil {
		t.Fatal("a drained kernel did not park its storage")
	}
}

// TestFreedRecordHandleIsInert: freeing a record zeroes its sequence
// number, so a handle to a fired event is inert even while the record
// sits unused on the freelist of a kernel that has not drained.
func TestFreedRecordHandleIsInert(t *testing.T) {
	k := NewKernel()
	first := k.At(1, func() {})
	k.At(2, func() {})
	k.RunUntil(1.5)
	if k.pages == nil {
		t.Fatal("a kernel with an event pending parked its storage")
	}
	if first.Pending() || first.Cancel() {
		t.Fatal("the handle of a fired event still reaches its freed record")
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
}

// adoptPair fills a fresh kernel a with n events, keeping their timers,
// drains it so that it parks its storage, then schedules n events on a
// fresh kernel b. It retries until b has adopted a's pages: the pool is
// per-P and drops entries at random under the race detector.
func adoptPair(t *testing.T, n int) (a, b *Kernel, aTimers, bTimers []Timer, bFired *int) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		a = NewKernel()
		aTimers = aTimers[:0]
		for i := 0; i < n; i++ {
			aTimers = append(aTimers, a.At(float64(i), func() {}))
		}
		aPage := &a.pages[0][0]
		a.Run()
		b = NewKernel()
		fired := 0
		bTimers = bTimers[:0]
		for i := 0; i < n; i++ {
			bTimers = append(bTimers, b.At(float64(i), func() { fired++ }))
		}
		if &b.pages[0][0] == aPage {
			return a, b, aTimers, bTimers, &fired
		}
	}
	t.Fatal("no kernel adopted parked storage in 50 attempts")
	return
}

// TestStaleHandleAcrossAdoption: a Timer looks only into its own kernel's
// storage. Once that kernel has parked its pages and another has adopted
// them, the old handles (whose indices and sequence numbers the
// adopter's events repeat) cannot cancel or report pending for the
// adopter's events; and the adopter's handles cannot reach the old
// kernel's events when it schedules again.
func TestStaleHandleAcrossAdoption(t *testing.T) {
	const n = 200
	a, b, aTimers, bTimers, bFired := adoptPair(t, n)
	for i, tm := range aTimers {
		if tm.idx != bTimers[i].idx || tm.seq != bTimers[i].seq {
			t.Fatalf("event %d: handles %d/%d and %d/%d differ; the test needs them equal",
				i, tm.idx, tm.seq, bTimers[i].idx, bTimers[i].seq)
		}
		if tm.Pending() {
			t.Fatalf("parked kernel's handle %d reports the adopter's event pending", i)
		}
		if tm.Cancel() {
			t.Fatalf("parked kernel's handle %d cancelled the adopter's event", i)
		}
	}
	// The reverse: a schedules again, in storage of its own, while b still
	// holds the pages a parked.
	aFired := 0
	var aAgain []Timer
	for i := 0; i < n; i++ {
		aAgain = append(aAgain, a.At(a.Now()+float64(i), func() { aFired++ }))
	}
	for i, tm := range bTimers {
		if !tm.Pending() {
			t.Fatalf("adopter's handle %d: own event not pending", i)
		}
	}
	for i, tm := range aAgain {
		if !tm.Pending() {
			t.Fatalf("a's new handle %d: own event not pending", i)
		}
	}
	b.Run()
	if *bFired != n {
		t.Fatalf("adopter fired %d of %d events", *bFired, n)
	}
	// b has parked the pages; its handles must not reach a's events.
	for i, tm := range bTimers {
		if tm.Pending() || tm.Cancel() {
			t.Fatalf("adopter's stale handle %d reached another kernel's event", i)
		}
	}
	a.Run()
	if aFired != n {
		t.Fatalf("a fired %d of %d events after re-scheduling", aFired, n)
	}
}

// storageScript drives one kernel through a seeded schedule: events at
// random times, some of whose callbacks schedule successors or cancel
// other events, and a random third of the timers cancelled before the
// run. It returns the fire order as (time, id) pairs and the timers.
func storageScript(k *Kernel, seed int64) ([]fired, []Timer) {
	rng := rand.New(rand.NewSource(seed))
	var got []fired
	var tms []Timer
	n := 1 + rng.Intn(3000)
	next := n
	var ev func(id int) func()
	ev = func(id int) func() {
		return func() {
			got = append(got, fired{t: k.Now(), id: id})
			switch rng.Intn(8) {
			case 0:
				next++
				tms = append(tms, k.After(rng.Float64()*10, ev(next)))
			case 1:
				tms[rng.Intn(len(tms))].Cancel()
			}
		}
	}
	for i := 0; i < n; i++ {
		tms = append(tms, k.At(rng.Float64()*100, ev(i)))
	}
	for i := 0; i < n/3; i++ {
		tms[rng.Intn(len(tms))].Cancel()
	}
	k.Run()
	return got, tms
}

// TestConcurrentKernelsShareStorage: goroutines build, fill, cancel,
// drain and rebuild kernels at once, so drained kernels park their
// storage and others adopt it across goroutines. Each calendar run must
// fire in exactly the binary-heap reference's order, leave nothing
// pending, and the previous round's handles must stay inert. Run it
// under -race.
func TestConcurrentKernelsShareStorage(t *testing.T) {
	const workers, rounds = 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var stale []Timer
			for r := 0; r < rounds; r++ {
				seed := int64(w*1000 + r)
				ck, hk := NewKernel(), NewKernelQueue(QueueHeap)
				cal, ctms := storageScript(ck, seed)
				ref, _ := storageScript(hk, seed)
				if len(cal) != len(ref) {
					errs <- fmt.Errorf("seed %d: calendar fired %d events, heap %d", seed, len(cal), len(ref))
					return
				}
				for i := range cal {
					if cal[i] != ref[i] {
						errs <- fmt.Errorf("seed %d: event %d: calendar %+v, heap %+v", seed, i, cal[i], ref[i])
						return
					}
				}
				if ck.Pending() != 0 || hk.Pending() != 0 || ck.pages != nil || hk.pages != nil {
					errs <- fmt.Errorf("seed %d: pending %d/%d after drain, or storage not parked", seed, ck.Pending(), hk.Pending())
					return
				}
				for _, tm := range stale {
					if tm.Pending() || tm.Cancel() {
						errs <- fmt.Errorf("seed %d: a handle from the previous round is live", seed)
						return
					}
				}
				stale = ctms
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
