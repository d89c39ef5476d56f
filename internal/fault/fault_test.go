package fault

import (
	"math"
	"testing"
	"testing/quick"

	"continuum/internal/sim"
	"continuum/internal/workload"
)

func TestSpecValidate(t *testing.T) {
	if (Spec{MeanUp: 1, MeanDown: 1}).Validate() != nil {
		t.Fatal("valid spec rejected")
	}
	for _, s := range []Spec{{0, 1}, {1, 0}, {-1, 1}} {
		if s.Validate() == nil {
			t.Fatalf("spec %+v accepted", s)
		}
	}
}

func TestAttachStartsUp(t *testing.T) {
	k := sim.NewKernel()
	tg := Attach(k, "gw", Spec{MeanUp: 10, MeanDown: 1}, 1e6, workload.NewRNG(1))
	if !tg.Up() || tg.Epoch() != 0 {
		t.Fatal("fresh target not clean")
	}
}

func TestFailureRepairCycle(t *testing.T) {
	k := sim.NewKernel()
	tg := Attach(k, "gw", Spec{MeanUp: 5, MeanDown: 1}, 1e6, workload.NewRNG(2))
	var fails, repairs int
	tg.OnFail = func() { fails++ }
	tg.OnRepair = func() { repairs++ }
	k.RunUntil(1000)
	if fails == 0 || repairs == 0 {
		t.Fatalf("no transitions in 1000s (fails=%d repairs=%d)", fails, repairs)
	}
	if diff := fails - repairs; diff < 0 || diff > 1 {
		t.Fatalf("fail/repair imbalance: %d/%d", fails, repairs)
	}
	if tg.Epoch() != uint64(fails) {
		t.Fatalf("epoch %d != failures %d", tg.Epoch(), fails)
	}
}

func TestMeasuredAvailabilityMatchesTheory(t *testing.T) {
	k := sim.NewKernel()
	spec := Spec{MeanUp: 9, MeanDown: 1} // 90% available
	tg := Attach(k, "gw", spec, 1e6, workload.NewRNG(3))
	var downSince, down float64
	tg.OnFail = func() { downSince = k.Now() }
	tg.OnRepair = func() { down += k.Now() - downSince }
	k.RunUntil(200000)
	if !tg.Up() {
		down += k.Now() - downSince
	}
	got := 1 - down/k.Now()
	want := spec.MeanUp / (spec.MeanUp + spec.MeanDown)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("availability %v, want ~%v", got, want)
	}
}

func TestAttachPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad spec accepted")
		}
	}()
	Attach(sim.NewKernel(), "x", Spec{}, 1e6, workload.NewRNG(1))
}

// Property: availability measured from the fail/repair transitions is
// always in [0, 1] and epochs never decrease.
func TestPropertyAvailabilityBounds(t *testing.T) {
	f := func(seed uint64, upRaw, downRaw uint8) bool {
		k := sim.NewKernel()
		spec := Spec{MeanUp: float64(upRaw%20) + 0.5, MeanDown: float64(downRaw%10) + 0.5}
		tg := Attach(k, "t", spec, 1e6, workload.NewRNG(seed))
		var downSince, down float64
		tg.OnFail = func() { downSince = k.Now() }
		tg.OnRepair = func() { down += k.Now() - downSince }
		var prevEpoch uint64
		for i := 0; i < 20; i++ {
			k.RunUntil(k.Now() + 50)
			open := 0.0
			if !tg.Up() {
				open = k.Now() - downSince
			}
			if a := 1 - (down+open)/k.Now(); a < 0 || a > 1 {
				return false
			}
			if tg.Epoch() < prevEpoch {
				return false
			}
			prevEpoch = tg.Epoch()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
