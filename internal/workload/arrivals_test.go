package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPoissonMeanRate(t *testing.T) {
	p := NewPoisson(NewRNG(1), 4.0)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		g := p.Next()
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	rate := n / sum
	if math.Abs(rate-4.0) > 0.05 {
		t.Fatalf("empirical rate %v, want ~4", rate)
	}
	if p.Rate() != 4.0 {
		t.Fatalf("Rate() = %v, want 4", p.Rate())
	}
}

func TestPoissonPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPoisson(0) did not panic")
		}
	}()
	NewPoisson(NewRNG(1), 0)
}

func TestSizeDistMeans(t *testing.T) {
	cases := []struct {
		name string
		d    interface{ Next() float64 }
		want float64 // the distribution mean
		tol  float64
	}{
		{"lognormal", NewLognormalSize(NewRNG(4), 1, 0.6), math.Exp(1 + 0.6*0.6/2), 0.03},
		{"pareto", NewParetoSize(NewRNG(5), 1, 2.5), 2.5 * 1 / (2.5 - 1), 0.05},
		{"uniform", NewUniformSize(NewRNG(6), 2, 8), (2 + 8) / 2.0, 0.02},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := 0.0
			const n = 300000
			for i := 0; i < n; i++ {
				v := tc.d.Next()
				if v < 0 {
					t.Fatalf("negative size %v", v)
				}
				sum += v
			}
			if mean := sum / n; math.Abs(mean-tc.want)/tc.want > tc.tol {
				t.Fatalf("mean = %v, want ~%v", mean, tc.want)
			}
		})
	}
}

func TestPropertyArrivalGapsNonnegative(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		procs := []ArrivalProcess{
			NewPoisson(rng.Split(), 3),
		}
		for _, p := range procs {
			for i := 0; i < 200; i++ {
				if p.Next() < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
