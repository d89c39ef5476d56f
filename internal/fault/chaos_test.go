package fault

import (
	"testing"
	"time"
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
		a, d := c.Next()
		if d != 0 {
			t.Fatalf("delay %v with DelayProb 0", d)
		}
		counts[a]++
	}
	// drop ≈ 0.3, err ≈ 0.7·0.3 = 0.21 (err is drawn only when drop
	// didn't fire). Allow generous slack; the seed makes this stable.
	if f := float64(counts[ChaosDrop]) / n; f < 0.25 || f > 0.35 {
		t.Errorf("drop fraction = %v", f)
	}
	if f := float64(counts[ChaosError]) / n; f < 0.16 || f > 0.26 {
		t.Errorf("error fraction = %v", f)
	}
	if counts[ChaosNone] == 0 {
		t.Error("no request survived injection at 30/30 rates")
	}
}

func TestChaosDelayInjection(t *testing.T) {
	c := NewChaos(ChaosSpec{DelayProb: 1, DelayMean: 10 * time.Millisecond, Seed: 1})
	sum := time.Duration(0)
	const n = 2000
	for i := 0; i < n; i++ {
		a, d := c.Next()
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

func TestChaosUpDownCycling(t *testing.T) {
	c := NewChaos(ChaosSpec{
		Spec: Spec{MeanUp: 1, MeanDown: 1},
		Seed: 3,
	})
	// Drive the phase machine with a fake clock stepping 100ms at a time
	// over 200 simulated seconds; both phases must be visited, and every
	// down-phase request must drop.
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }
	upSeen, downSeen := 0, 0
	for i := 0; i < 2000; i++ {
		now = now.Add(100 * time.Millisecond)
		a, _ := c.Next()
		if c.up { // Next advanced the phase to now
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

func TestChaosActionString(t *testing.T) {
	for a, want := range map[ChaosAction]string{
		ChaosNone: "none", ChaosError: "error", ChaosDrop: "drop",
	} {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q", int(a), got)
		}
	}
}
