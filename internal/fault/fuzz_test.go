package fault

import (
	"math"
	"testing"
)

// FuzzParseChaos feeds the chaos grammar arbitrary text: it must never
// panic, and every spec it accepts must be one NewChaos can run — each
// probability a number in [0,1], drop and err summing to at most 1 (one
// uniform decides both), a non-negative mean delay, and up/down both
// zero or both positive. The seed corpus in
// testdata/fuzz/FuzzParseChaos replays under plain `go test`; explore
// with
//
//	go test -run '^$' -fuzz FuzzParseChaos -fuzztime 60s ./internal/fault
func FuzzParseChaos(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseChaos(s)
		if err != nil {
			return
		}
		for _, p := range []float64{spec.DropProb, spec.ErrProb, spec.DelayProb} {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("ParseChaos(%q) accepted probability %v: %+v", s, p, spec)
			}
		}
		if !(spec.DropProb+spec.ErrProb <= 1) {
			t.Fatalf("ParseChaos(%q) accepted drop+err %v: %+v", s, spec.DropProb+spec.ErrProb, spec)
		}
		if spec.DelayMean < 0 {
			t.Fatalf("ParseChaos(%q) accepted negative delay: %+v", s, spec)
		}
		if (spec.MeanUp == 0) != (spec.MeanDown == 0) || spec.MeanUp < 0 || spec.MeanDown < 0 {
			t.Fatalf("ParseChaos(%q) accepted up/down %v/%v", s, spec.MeanUp, spec.MeanDown)
		}
	})
}
