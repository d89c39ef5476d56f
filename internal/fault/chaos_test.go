package fault

import (
	"math"
	"testing"
	"time"

	"continuum/internal/sim"
	"continuum/internal/workload"
)

func TestParseChaos(t *testing.T) {
	spec, err := ParseChaos("drop=0.05,err=0.1,delay=20ms,delayp=0.2,up=10s,down=500ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if spec.DropProb != 0.05 || spec.ErrProb != 0.1 || spec.DelayProb != 0.2 ||
		spec.DelayMean != 20*time.Millisecond || spec.Seed != 7 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.MeanUp != 10 || spec.MeanDown != 0.5 {
		t.Fatalf("up/down = %v/%v", spec.MeanUp, spec.MeanDown)
	}
}

func TestParseChaosDelayAloneAppliesAlways(t *testing.T) {
	spec, err := ParseChaos("delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if spec.DelayProb != 1 {
		t.Fatalf("DelayProb = %v", spec.DelayProb)
	}
}

func TestParseChaosRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"bogus=1",
		"drop",
		"drop=1.5",
		"up=10s", // down missing
		"drop=x",
		"drop=NaN",
		"err=nan",
		"delayp=NaN,delay=5ms",
		"drop=0.6,err=0.5", // one uniform cannot give 0.6 and 0.5
	} {
		if _, err := ParseChaos(s); err == nil {
			t.Errorf("ParseChaos(%q) accepted", s)
		}
	}
}

func TestChaosProbabilities(t *testing.T) {
	c := NewChaos(ChaosSpec{DropProb: 0.3, ErrProb: 0.3, Seed: 1})
	counts := map[ChaosAction]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		a, d := c.Draw(0)
		if d != 0 {
			t.Fatalf("delay %v with DelayProb 0", d)
		}
		counts[a]++
	}
	// drop ≈ 0.3 and err ≈ 0.3: one uniform decides both, so each is an
	// absolute probability. Allow generous slack; the seed makes this
	// stable.
	if f := float64(counts[ChaosDrop]) / n; f < 0.25 || f > 0.35 {
		t.Errorf("drop fraction = %v", f)
	}
	if f := float64(counts[ChaosError]) / n; f < 0.25 || f > 0.35 {
		t.Errorf("error fraction = %v", f)
	}
	if counts[ChaosNone] == 0 {
		t.Error("no request survived injection at 30/30 rates")
	}
}

// TestChaosFractionsAreAbsolute: DropProb and ErrProb are the
// probabilities of a drop and of an error, and the rest pass, whatever
// the other is set to, up to drop+err = 1.
func TestChaosFractionsAreAbsolute(t *testing.T) {
	for _, spec := range []ChaosSpec{
		{DropProb: 0.2, ErrProb: 0.5},
		{DropProb: 0.5, ErrProb: 0.5},
		{DropProb: 0.05, ErrProb: 0.1, DelayProb: 0.5, DelayMean: time.Millisecond},
		{ErrProb: 0.4},
	} {
		spec.Seed = 9
		c := NewChaos(spec)
		counts := map[ChaosAction]float64{}
		const n = 40000
		for i := 0; i < n; i++ {
			a, _ := c.Draw(0)
			counts[a]++
		}
		// Four standard deviations of a binomial fraction at p = 0.5.
		const tol = 4 * 0.5 / 200
		for a, want := range map[ChaosAction]float64{
			ChaosDrop:  spec.DropProb,
			ChaosError: spec.ErrProb,
			ChaosNone:  1 - spec.DropProb - spec.ErrProb,
		} {
			if got := counts[a] / n; math.Abs(got-want) > tol {
				t.Errorf("drop=%v err=%v: %v fraction %.4f, want %v", spec.DropProb, spec.ErrProb, a, got, want)
			}
		}
	}
}

func TestChaosDelayInjection(t *testing.T) {
	c := NewChaos(ChaosSpec{DelayProb: 1, DelayMean: 10 * time.Millisecond, Seed: 1})
	sum := time.Duration(0)
	const n = 2000
	for i := 0; i < n; i++ {
		a, d := c.NextAt(c.epoch)
		if a != ChaosNone {
			t.Fatalf("action = %v with only delay configured", a)
		}
		sum += d
	}
	mean := sum / n
	if mean < 5*time.Millisecond || mean > 20*time.Millisecond {
		t.Fatalf("mean injected delay = %v, want ≈10ms", mean)
	}
}

// TestChaosZeroDelayMeanDrawsNothing: a spike of mean 0 is no spike, so
// it takes no draw from the request stream.
func TestChaosZeroDelayMeanDrawsNothing(t *testing.T) {
	spec := ChaosSpec{ErrProb: 0.5}
	plain := NewChaosOn(spec, workload.NewRNG(4), nil, time.Time{}, 1)
	spec.DelayProb = 1
	zero := NewChaosOn(spec, workload.NewRNG(4), nil, time.Time{}, 1)
	for i := 0; i < 1000; i++ {
		a, _ := plain.Draw(0)
		b, d := zero.Draw(0)
		if a != b || d != 0 {
			t.Fatalf("draw %d: %v/%v with a zero delay mean, %v without", i, b, d, a)
		}
	}
}

func TestChaosUpDownCycling(t *testing.T) {
	c := NewChaos(ChaosSpec{
		Spec: Spec{MeanUp: 1, MeanDown: 1},
		Seed: 3,
	})
	// Drive the phase machine at explicit times stepping 100ms over 200
	// seconds; both phases must be visited, and every down-phase request
	// must drop.
	upSeen, downSeen := 0, 0
	for i := 1; i <= 2000; i++ {
		a, _ := c.Draw(float64(i) / 10)
		if c.phases.Up() { // Draw advanced the phase to now
			upSeen++
			if a != ChaosNone {
				t.Fatalf("action %v while up with zero probabilities", a)
			}
		} else {
			downSeen++
			if a != ChaosDrop {
				t.Fatalf("action %v while down", a)
			}
		}
	}
	if upSeen == 0 || downSeen == 0 {
		t.Fatalf("phases not both visited: up=%d down=%d", upSeen, downSeen)
	}
	// MeanUp == MeanDown: availability should be near 50%.
	frac := float64(upSeen) / float64(upSeen+downSeen)
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("up fraction = %v", frac)
	}
}

// TestChaosPhasesStartAtInstall: a wall-clock injector's first up phase
// starts when it is built, not at its first request, so when a request
// arrives does not move the phase boundaries.
func TestChaosPhasesStartAtInstall(t *testing.T) {
	spec := ChaosSpec{Spec: Spec{MeanUp: 1, MeanDown: 1}, Seed: 5}
	early, late := NewChaos(spec), NewChaos(spec)
	for i := 0; i <= 100; i++ {
		early.NextAt(early.epoch.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	late.NextAt(late.epoch.Add(10 * time.Second))
	if early.phases.Up() != late.phases.Up() || early.phases.End() != late.phases.End() {
		t.Fatalf("at 10s: up=%v until %v when asked from the start, up=%v until %v when first asked at 10s",
			early.phases.Up(), early.phases.End(), late.phases.Up(), late.phases.End())
	}
}

// TestCycleFlipsAtInjectorBoundaries: the phase boundaries an injector
// reports from a stream are the times Cycle flips a target on a kernel
// from a copy of that stream, up to the last flip before the bound.
func TestCycleFlipsAtInjectorBoundaries(t *testing.T) {
	spec := Spec{MeanUp: 2, MeanDown: 0.5}
	const from, bound = 3, 200
	k := sim.NewKernel()
	tg := NewTarget("n")
	var flips []float64
	tg.OnFail = func() { flips = append(flips, k.Now()) }
	tg.OnRepair = func() { flips = append(flips, k.Now()) }
	Cycle(k, tg, NewPhases(spec, from, bound, workload.NewRNG(21)))
	k.Run()

	ph := NewPhases(spec, from, bound, workload.NewRNG(21))
	c := NewChaosOn(ChaosSpec{Spec: spec, ErrProb: 0.5}, workload.NewRNG(1), ph, time.Time{}, 1)
	var ends []float64
	for !math.IsInf(ph.End(), 1) {
		ends = append(ends, ph.End())
		if a, _ := c.Draw(ph.End()); (a == ChaosDrop) == ph.Up() {
			t.Fatalf("at %v: action %v in an up=%v phase", ends[len(ends)-1], a, ph.Up())
		}
	}
	if len(flips) < 10 || len(flips) != len(ends) {
		t.Fatalf("%d flips on the kernel, %d boundaries from the injector", len(flips), len(ends))
	}
	for i := range flips {
		if flips[i] != ends[i] {
			t.Fatalf("boundary %d: kernel flip at %v, injector at %v", i, flips[i], ends[i])
		}
	}
	if tg.Up() != ph.Up() {
		t.Fatalf("after the bound: target up=%v, injector up=%v", tg.Up(), ph.Up())
	}
}

func TestChaosActionString(t *testing.T) {
	for a, want := range map[ChaosAction]string{
		ChaosNone: "none", ChaosError: "error", ChaosDrop: "drop",
	} {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q", int(a), got)
		}
	}
}
