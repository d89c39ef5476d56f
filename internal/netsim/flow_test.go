package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"continuum/internal/sim"
	"continuum/internal/workload"
)

func twoNode(capacity float64) (*sim.Kernel, *Network) {
	k := sim.NewKernel()
	n := New(k, 2)
	n.AddDuplexLink(0, 1, 0.010, capacity)
	return k, n
}

func TestSingleFlowTime(t *testing.T) {
	k, n := twoNode(1e6) // 1 MB/s, 10ms prop
	var at float64 = -1
	n.Transfer(0, 1, 2e6, func(*Flow) { at = k.Now() })
	k.Run()
	// 10ms prop + 2s transmission
	if math.Abs(at-2.010) > 1e-9 {
		t.Fatalf("flow finished at %v, want 2.010", at)
	}
	if n.Transfers != 1 {
		t.Fatalf("Transfers = %d", n.Transfers)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	k, n := twoNode(1e6)
	var t1, t2 float64
	n.Transfer(0, 1, 1e6, func(*Flow) { t1 = k.Now() })
	n.Transfer(0, 1, 1e6, func(*Flow) { t2 = k.Now() })
	k.Run()
	// Equal flows share the link: each sees ~0.5 MB/s, both finish at
	// ~10ms + 2s.
	if math.Abs(t1-2.010) > 1e-6 || math.Abs(t2-2.010) > 1e-6 {
		t.Fatalf("finish times %v, %v; want both ~2.010", t1, t2)
	}
}

func TestShortFlowThenLongCompletes(t *testing.T) {
	k, n := twoNode(1e6)
	var tShort, tLong float64
	n.Transfer(0, 1, 1e6, func(*Flow) { tShort = k.Now() })
	n.Transfer(0, 1, 3e6, func(*Flow) { tLong = k.Now() })
	k.Run()
	// Shared until the short one finishes: short delivers 1MB at 0.5MB/s =
	// 2s (+10ms). Long then has 2MB left at full 1MB/s: 2s more.
	if math.Abs(tShort-2.010) > 1e-6 {
		t.Fatalf("short flow at %v, want 2.010", tShort)
	}
	if math.Abs(tLong-4.010) > 1e-6 {
		t.Fatalf("long flow at %v, want 4.010", tLong)
	}
}

func TestFlowJoinsMidway(t *testing.T) {
	k, n := twoNode(1e6)
	var tA, tB float64
	n.Transfer(0, 1, 2e6, func(*Flow) { tA = k.Now() })
	k.At(1.010, func() {
		n.Transfer(0, 1, 1e6, func(*Flow) { tB = k.Now() })
	})
	k.Run()
	// A runs alone for 1s (1MB done), then shares: A has 1MB left at
	// 0.5MB/s -> finishes at ~3.01 (plus B's 10ms join offset shifts
	// sharing slightly). B: starts flowing at 1.02, 1MB at 0.5 MB/s while
	// A is active.
	if tA < 2.9 || tA > 3.1 {
		t.Fatalf("A finished at %v, want ~3.0", tA)
	}
	if tB < 2.9 || tB > 3.15 {
		t.Fatalf("B finished at %v, want ~3.0", tB)
	}
}

func TestDisjointFlowsDoNotInterfere(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 4)
	n.AddLink(0, 1, 0.010, 1e6)
	n.AddLink(2, 3, 0.010, 1e6)
	var t1, t2 float64
	n.Transfer(0, 1, 1e6, func(*Flow) { t1 = k.Now() })
	n.Transfer(2, 3, 1e6, func(*Flow) { t2 = k.Now() })
	k.Run()
	if math.Abs(t1-1.010) > 1e-6 || math.Abs(t2-1.010) > 1e-6 {
		t.Fatalf("disjoint flows at %v, %v; want both 1.010", t1, t2)
	}
}

func TestDumbbellBottleneckSharing(t *testing.T) {
	k := sim.NewKernel()
	n, left, right := dumbbell(k, dumbbellSpec{
		LeftLeaves: 2, RightLeaves: 2,
		AccessLatency: 0.001, AccessCapacity: 1e9,
		BottleneckLatency: 0.010, BottleneckCapacity: 1e6,
	})
	var done []float64
	for i := 0; i < 2; i++ {
		n.Transfer(left[i], right[i], 1e6, func(*Flow) { done = append(done, k.Now()) })
	}
	k.Run()
	// Both cross the 1MB/s bottleneck: each ~0.5MB/s, ~2s + 12ms prop.
	for _, d := range done {
		if d < 2.0 || d > 2.1 {
			t.Fatalf("bottleneck-shared finish = %v, want ~2.01", d)
		}
	}
}

func TestMaxMinUnevenPaths(t *testing.T) {
	// Flow X uses links L1+L2; flow Y uses only L2 (capacity 1 MB/s);
	// flow Z uses only L1 (capacity 10 MB/s). Max-min: X and Y split L2
	// (0.5 each); Z gets L1's remainder 9.5.
	k := sim.NewKernel()
	n := New(k, 3)
	n.AddLink(0, 1, 0, 1e7) // L1
	n.AddLink(1, 2, 0, 1e6) // L2
	fx := n.Transfer(0, 2, 1e9, nil)
	fy := n.Transfer(1, 2, 1e9, nil)
	fz := n.Transfer(0, 1, 1e9, nil)
	k.RunUntil(0.001) // let flows activate
	if math.Abs(fx.Rate()-5e5) > 1 {
		t.Fatalf("X rate = %v, want 5e5", fx.Rate())
	}
	if math.Abs(fy.Rate()-5e5) > 1 {
		t.Fatalf("Y rate = %v, want 5e5", fy.Rate())
	}
	if math.Abs(fz.Rate()-9.5e6) > 1 {
		t.Fatalf("Z rate = %v, want 9.5e6", fz.Rate())
	}
}

func TestSameNodeTransferImmediate(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 1)
	var at float64 = -1
	n.Transfer(0, 0, 1e12, func(*Flow) { at = k.Now() })
	k.Run()
	if at != 0 {
		t.Fatalf("same-node transfer at %v, want 0", at)
	}
}

func TestZeroSizeTransfer(t *testing.T) {
	k, n := twoNode(1e6)
	fired := false
	n.Transfer(0, 1, 0, func(*Flow) { fired = true })
	k.Run()
	if !fired {
		t.Fatal("zero-size transfer never completed")
	}
}

func TestBytesCarriedAccounting(t *testing.T) {
	k, n := twoNode(1e6)
	n.Transfer(0, 1, 5e5, nil)
	n.Message(0, 1, 100, func() {})
	k.Run()
	var forward *Link
	for _, l := range n.links {
		if l.From == 0 && l.To == 1 {
			forward = l
		}
	}
	if math.Abs(forward.BytesCarried-(5e5+100)) > 1e-9 {
		t.Fatalf("BytesCarried = %v, want 500100", forward.BytesCarried)
	}
}

func TestActiveFlowsGauge(t *testing.T) {
	k, n := twoNode(1e6)
	n.Transfer(0, 1, 1e6, nil)
	if len(n.active) != 0 {
		t.Fatal("flow active before propagation completes")
	}
	k.RunUntil(0.5)
	if len(n.active) != 1 {
		t.Fatalf("active flows = %d mid-transfer, want 1", len(n.active))
	}
	k.Run()
	if len(n.active) != 0 {
		t.Fatalf("active flows = %d after completion, want 0", len(n.active))
	}
}

func TestNegativeTransferPanics(t *testing.T) {
	_, n := twoNode(1e6)
	defer func() {
		if recover() == nil {
			t.Error("negative transfer did not panic")
		}
	}()
	n.Transfer(0, 1, -5, nil)
}

// Property: n equal flows over one link each take ~n times the solo time
// (work conservation + fairness).
func TestPropertyFairSlowdown(t *testing.T) {
	f := func(nf uint8) bool {
		flows := int(nf%6) + 1
		k, n := twoNode(1e6)
		var finish []float64
		for i := 0; i < flows; i++ {
			n.Transfer(0, 1, 1e6, func(*Flow) { finish = append(finish, k.Now()) })
		}
		k.Run()
		want := float64(flows) + 0.010
		for _, d := range finish {
			if math.Abs(d-want) > 0.01*want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: total delivered bytes equal the sum of transfer sizes
// (conservation), for random transfer schedules on a shared link.
func TestPropertyByteConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		k, n := twoNode(1e6)
		total := 0.0
		count := int(rng.Uint64()%5) + 1
		done := 0
		for i := 0; i < count; i++ {
			size := rng.Range(1e4, 1e6)
			total += size
			at := rng.Float64()
			k.At(at, func() {
				n.Transfer(0, 1, size, func(*Flow) { done++ })
			})
		}
		k.Run()
		var forward *Link
		for _, l := range n.links {
			if l.From == 0 && l.To == 1 {
				forward = l
			}
		}
		return done == count && math.Abs(forward.BytesCarried-total) < 1e-6*total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a flow's completion time is never better than the uncontended
// analytic bound.
func TestPropertyFlowLowerBound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		k, n := twoNode(1e6)
		ok := true
		count := int(rng.Uint64()%4) + 1
		for i := 0; i < count; i++ {
			size := rng.Range(1e5, 2e6)
			bound := n.TransferTime(0, 1, size)
			start := k.Now()
			_ = start
			n.Transfer(0, 1, size, func(fl *Flow) {
				if fl.Finish-fl.Start < bound-1e-9 {
					ok = false
				}
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowSharingDeterministic: max-min sharing must resolve bottleneck
// ties, avail bookkeeping and equal-ETA completions the same way on every
// run. Equal sizes, a coarse start grid and access links whose capacity
// ties with the shared bottleneck's fair share make every kind of tie
// occur; Go randomises map iteration per range, so any map-ordered step
// shows up as a different completion order or Finish bit pattern.
func TestFlowSharingDeterministic(t *testing.T) {
	run := func() []uint64 {
		k := sim.NewKernel()
		n, left, right := dumbbell(k, dumbbellSpec{
			LeftLeaves: 4, RightLeaves: 4,
			AccessLatency: 0.001, AccessCapacity: 2.5e5,
			BottleneckLatency: 0.010, BottleneckCapacity: 1e6,
		})
		rng := workload.NewRNG(3)
		var out []uint64
		for i := 0; i < 40; i++ {
			a, b := left[rng.Intn(len(left))], right[rng.Intn(len(right))]
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			size := float64(1+rng.Intn(3)) * 1e5
			at := float64(rng.Intn(8)) * 0.05
			id := uint64(i)
			k.At(at, func() {
				n.Transfer(a, b, size, func(f *Flow) {
					out = append(out, id, math.Float64bits(f.Finish))
				})
			})
		}
		k.Run()
		return out
	}
	want := run()
	if len(want) != 80 {
		t.Fatalf("%d completions, want 40", len(want)/2)
	}
	for r := 0; r < 10; r++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d differs at completion %d: %v vs %v", r, i/2, got[i], want[i])
			}
		}
	}
}

// dumbbellSpec parameterizes a dumbbell: two access stars joined by one
// shared bottleneck link.
type dumbbellSpec struct {
	LeftLeaves, RightLeaves int
	AccessLatency           float64
	AccessCapacity          float64
	BottleneckLatency       float64
	BottleneckCapacity      float64
}

// dumbbell builds the classic congestion topology: routers 0 and 1
// joined by the bottleneck, each with its access leaves. It returns the
// left and right leaf ids.
func dumbbell(k *sim.Kernel, spec dumbbellSpec) (net *Network, left, right []int) {
	const lRouter, rRouter = 0, 1
	n := New(k, spec.LeftLeaves+spec.RightLeaves+2)
	n.AddDuplexLink(lRouter, rRouter, spec.BottleneckLatency, spec.BottleneckCapacity)
	id := 2
	for i := 0; i < spec.LeftLeaves; i++ {
		n.AddDuplexLink(id, lRouter, spec.AccessLatency, spec.AccessCapacity)
		left = append(left, id)
		id++
	}
	for i := 0; i < spec.RightLeaves; i++ {
		n.AddDuplexLink(id, rRouter, spec.AccessLatency, spec.AccessCapacity)
		right = append(right, id)
		id++
	}
	return n, left, right
}
