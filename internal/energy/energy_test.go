package energy

import (
	"math"
	"testing"
	"testing/quick"

	"continuum/internal/sim"
)

func TestMeterIdleIntegration(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k, 10)
	k.RunUntil(5)
	if j := m.Joules(); math.Abs(j-50) > 1e-9 {
		t.Fatalf("Joules = %v, want 50", j)
	}
}

func TestMeterLoadSteps(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k, 1)
	k.At(10, func() { m.AddLoad(9) })    // 10W from t=10
	k.At(20, func() { m.RemoveLoad(9) }) // 1W from t=20
	k.RunUntil(30)
	// 1*10 + 10*10 + 1*10 = 120 J
	if j := m.Joules(); math.Abs(j-120) > 1e-9 {
		t.Fatalf("Joules = %v, want 120", j)
	}
	if m.watts != 1 {
		t.Fatalf("Watts = %v, want 1", m.watts)
	}
}

func TestMeterZeroTime(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k, 100)
	if m.Joules() != 0 {
		t.Fatalf("Joules at t=0 = %v", m.Joules())
	}
}

func TestMeterJoulesIdempotent(t *testing.T) {
	k := sim.NewKernel()
	m := NewMeter(k, 7)
	k.RunUntil(3)
	a := m.Joules()
	b := m.Joules()
	if a != b {
		t.Fatalf("repeated Joules() differ: %v vs %v", a, b)
	}
}

func TestMeterPanics(t *testing.T) {
	k := sim.NewKernel()
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative base", func() { NewMeter(k, -1) }},
		{"negative add", func() { NewMeter(k, 0).AddLoad(-1) }},
		{"negative remove", func() { NewMeter(k, 0).RemoveLoad(-1) }},
		{"remove below zero", func() { NewMeter(k, 0).RemoveLoad(5) }},
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

// Property: energy is nondecreasing in time and equals watts*dt for
// constant load.
func TestPropertyMeterMonotone(t *testing.T) {
	f := func(steps []uint8) bool {
		k := sim.NewKernel()
		m := NewMeter(k, 5)
		prev := 0.0
		tnow := 0.0
		for _, s := range steps {
			tnow += float64(s%10) + 0.1
			k.RunUntil(tnow)
			j := m.Joules()
			if j < prev-1e-9 {
				return false
			}
			prev = j
		}
		return math.Abs(prev-5*tnow) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
