package sim

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// use acquires n units of r, holds them for d seconds of virtual time,
// then releases them and calls done (which may be nil).
func use(r *Resource, n int64, d float64, done func()) {
	r.Acquire(n, func() {
		r.k.After(d, func() {
			r.Release(n)
			if done != nil {
				done()
			}
		})
	})
}

func TestResourceImmediateGrant(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cores", 4)
	granted := false
	r.Acquire(2, func() { granted = true })
	if !granted {
		t.Fatal("acquire within capacity not granted immediately")
	}
	if r.InUse() != 2 {
		t.Fatalf("InUse=%d, want 2", r.InUse())
	}
}

func TestResourceBlocksWhenFull(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cores", 2)
	r.Acquire(2, func() {})
	blocked := true
	r.Acquire(1, func() { blocked = false })
	if !blocked {
		t.Fatal("acquire beyond free granted immediately")
	}
	if r.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want 1", r.QueueLen())
	}
	r.Release(2)
	if blocked {
		t.Fatal("queued acquire not granted after release")
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cores", 4)
	r.Acquire(4, func() {})
	var order []int
	r.Acquire(3, func() { order = append(order, 1) }) // head, large
	r.Acquire(1, func() { order = append(order, 2) }) // small, behind
	r.Release(1)
	// 3 units free is still < head's 3? No: 1 free < 3, head blocked; the
	// small request must NOT overtake.
	if len(order) != 0 {
		t.Fatalf("overtaking occurred: %v", order)
	}
	r.Release(2) // 3 free: head (3) granted, then small blocked (0 free)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("order = %v, want [1]", order)
	}
	r.Release(3)
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestResourceMMcQueueing(t *testing.T) {
	// 3 jobs of 10s on 2 servers: completions at 10, 10, 20.
	k := NewKernel()
	r := NewResource(k, "srv", 2)
	var done []float64
	for i := 0; i < 3; i++ {
		use(r, 1, 10, func() { done = append(done, k.Now()) })
	}
	k.Run()
	want := []float64{10, 10, 20}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestResourceStats(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 2)
	use(r, 2, 10, nil)
	k.At(20, func() {}) // extend sim to 20s
	k.Run()
	if r.MaxInUse != 2 {
		t.Fatalf("MaxInUse = %d, want 2", r.MaxInUse)
	}
	if r.Grants != 1 {
		t.Fatalf("Grants = %d, want 1", r.Grants)
	}
}

func TestResourcePanics(t *testing.T) {
	k := NewKernel()
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero capacity", func() { NewResource(k, "x", 0) }},
		{"acquire zero", func() { NewResource(k, "x", 1).Acquire(0, func() {}) }},
		{"acquire beyond capacity", func() { NewResource(k, "x", 1).Acquire(2, func() {}) }},
		{"release unheld", func() { NewResource(k, "x", 1).Release(1) }},
		{"release zero", func() { NewResource(k, "x", 1).Release(0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// TestResourceUncontendedAllocatesNothing: an Acquire granted at once,
// and its Release, allocate nothing.
func TestResourceUncontendedAllocatesNothing(t *testing.T) {
	r := NewResource(NewKernel(), "cores", 4)
	fn := func() {}
	if a := testing.AllocsPerRun(100, func() {
		r.Acquire(1, fn)
		r.Release(1)
	}); a != 0 {
		t.Fatalf("uncontended Acquire+Release allocates %.0f times", a)
	}
}

// TestResourceForgetsGrantedRequests: once a queued request is granted,
// the resource no longer reaches its callback, though the queue's storage
// lives on for the requests behind it.
func TestResourceForgetsGrantedRequests(t *testing.T) {
	r := NewResource(NewKernel(), "cores", 1)
	defer runtime.KeepAlive(r)
	r.Acquire(1, func() {})
	freed := make(chan struct{})
	func() {
		captured := new([64]byte)
		runtime.SetFinalizer(captured, func(*[64]byte) { close(freed) })
		r.Acquire(1, func() { captured[0]++ })
	}()
	r.Acquire(1, func() {}) // keeps the queue's storage in use
	r.Release(1)            // grants the request holding captured
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the resource still reaches a granted request's callback")
}

// TestResourceGrantCallbackReenters: a grant callback that acquires the
// same resource again and releases what it was granted. The new request
// queues behind the ones already waiting, the release grants the next
// waiter from inside the callback, and everything is still granted in
// FIFO order, never beyond capacity, and handed back in the end.
func TestResourceGrantCallbackReenters(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cores", 2)
	var order []string
	var granted func(name string, n int64) func()
	granted = func(name string, n int64) func() {
		return func() {
			if r.InUse() > r.Capacity() {
				t.Fatalf("%s granted with %d of %d in use", name, r.InUse(), r.Capacity())
			}
			order = append(order, name)
			if name == "a" {
				r.Acquire(1, granted("a2", 1))
				r.Release(n)
			}
		}
	}
	r.Acquire(2, granted("hold", 2))
	r.Acquire(1, granted("a", 1))
	r.Acquire(2, granted("b", 2))
	r.Acquire(1, granted("c", 1))
	r.Release(2) // grants a, which requeues and releases, granting b
	if got := strings.Join(order, ","); got != "hold,a,b" || r.InUse() != 2 || r.QueueLen() != 2 {
		t.Fatalf("after the first release: order %s, %d in use, %d queued", got, r.InUse(), r.QueueLen())
	}
	r.Release(2) // b's units: c and a2 fit
	r.Release(1)
	r.Release(1)
	if got := strings.Join(order, ","); got != "hold,a,b,c,a2" {
		t.Fatalf("grant order %s, want FIFO hold,a,b,c,a2", got)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 || r.Grants != 5 {
		t.Fatalf("%d in use, %d queued, %d grants after everything was released: want 0, 0, 5", r.InUse(), r.QueueLen(), r.Grants)
	}
}

// Property: conservation — after any schedule of acquire/release pairs
// completes, InUse returns to 0 and grants equal the number of acquisitions.
func TestPropertyResourceConservation(t *testing.T) {
	f := func(seed int64, nJobs uint8, capacity uint8) bool {
		cap64 := int64(capacity%8) + 1
		k := NewKernel()
		r := NewResource(k, "r", cap64)
		rng := rand.New(rand.NewSource(seed))
		jobs := int(nJobs%64) + 1
		completed := 0
		for i := 0; i < jobs; i++ {
			n := rng.Int63n(cap64) + 1
			d := rng.Float64() * 10
			at := rng.Float64() * 10
			k.At(at, func() {
				use(r, n, d, func() { completed++ })
			})
		}
		k.Run()
		return completed == jobs && r.InUse() == 0 && int(r.Grants) == jobs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: InUse never exceeds capacity at any grant point.
func TestPropertyResourceNeverOversubscribed(t *testing.T) {
	f := func(seed int64) bool {
		k := NewKernel()
		const capacity = 5
		r := NewResource(k, "r", capacity)
		rng := rand.New(rand.NewSource(seed))
		ok := true
		for i := 0; i < 100; i++ {
			n := rng.Int63n(capacity) + 1
			at := rng.Float64() * 20
			d := rng.Float64() * 5
			k.At(at, func() {
				r.Acquire(n, func() {
					if r.InUse() > capacity {
						ok = false
					}
					k.After(d, func() { r.Release(n) })
				})
			})
		}
		k.Run()
		return ok && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
