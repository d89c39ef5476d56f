package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []float64
	for _, tt := range []float64{5, 1, 3, 2, 4} {
		tt := tt
		k.At(tt, func() { order = append(order, tt) })
	}
	if n := k.Run(); n != 5 {
		t.Fatalf("Run() = %d events, want 5", n)
	}
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if k.Now() != 5 {
		t.Fatalf("Now() = %v after run, want 5", k.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(1.0, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at %d: got %v", i, order)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	k := NewKernel()
	var at float64 = -1
	k.At(10, func() {
		k.After(5, func() { at = k.Now() })
	})
	k.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestNaNTimePanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("NaN At did not panic")
		}
	}()
	k.At(math.NaN(), func() {})
}

func TestCancelPreventsFiring(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.At(1, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel() = false on pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel() = true, want false")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	k := NewKernel()
	tm := k.At(1, func() {})
	k.Run()
	if tm.Cancel() {
		t.Fatal("Cancel() after firing = true, want false")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel()
	var fired []float64
	for _, tt := range []float64{1, 2, 3, 4} {
		tt := tt
		k.At(tt, func() { fired = append(fired, tt) })
	}
	n := k.RunUntil(2.5)
	if n != 2 {
		t.Fatalf("RunUntil(2.5) executed %d, want 2", n)
	}
	if k.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", k.Now())
	}
	n = k.Run()
	if n != 2 {
		t.Fatalf("second Run() executed %d, want 2", n)
	}
}

func TestRunUntilEmptyAdvancesToDeadline(t *testing.T) {
	k := NewKernel()
	k.RunUntil(42)
	if k.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", k.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.At(float64(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	n := k.Run()
	if n != 3 {
		t.Fatalf("Run() after Stop executed %d, want 3", n)
	}
	// Run resumes with remaining events.
	if n := k.Run(); n != 7 {
		t.Fatalf("resumed Run() = %d, want 7", n)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			k.After(1, rec)
		}
	}
	k.After(1, rec)
	k.Run()
	if depth != 100 {
		t.Fatalf("chained depth = %d, want 100", depth)
	}
	if k.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", k.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.At(float64(i), func() {})
	}
	k.Run()
	if k.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", k.Fired())
	}
}

// Property: for any set of nonnegative schedule times, events fire in sorted
// order and the final clock equals the max time.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		k := NewKernel()
		var fired []float64
		for _, u := range times {
			tt := float64(u)
			k.At(tt, func() { fired = append(fired, tt) })
		}
		k.Run()
		if len(fired) != len(times) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		if len(times) > 0 {
			max := 0.0
			for _, u := range times {
				if float64(u) > max {
					max = float64(u)
				}
			}
			if k.Now() != max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the uncancelled ones
// firing.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		fired := 0
		want := 0
		for i := 0; i < int(n); i++ {
			tm := k.At(float64(i%7), func() { fired++ })
			if rng.Intn(2) == 0 {
				tm.Cancel()
			} else {
				want++
			}
		}
		k.Run()
		return fired == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []float64 {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var out []float64
		var spawn func()
		spawn = func() {
			out = append(out, k.Now())
			if len(out) < 200 {
				k.After(rng.Float64(), spawn)
			}
		}
		k.After(rng.Float64(), spawn)
		k.Run()
		return out
	}
	a, b := trace(7), trace(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
