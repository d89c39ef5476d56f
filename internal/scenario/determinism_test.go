package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"continuum/internal/trace"
)

// TestRunMatchesRunTraced: Run records no trace, and that must not change
// the simulated result. Its marshalled Report equals RunTraced's for
// every shipped scenario and the 1000-node stress runs at seeds 1 and 7.
func TestRunMatchesRunTraced(t *testing.T) {
	scenarios := goldenScenarios(t)
	if len(scenarios) != 8 {
		t.Fatalf("%d scenarios, want the 6 shipped examples and 2 stress runs", len(scenarios))
	}
	for name, s := range scenarios {
		plain, err := s.Run()
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		traced, tr, err := s.RunTraced()
		if err != nil {
			t.Fatalf("%s: RunTraced: %v", name, err)
		}
		if len(tr.Entities()) == 0 {
			t.Fatalf("%s: RunTraced recorded no events", name)
		}
		pb, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := json.Marshal(traced)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, tb) {
			t.Errorf("%s: Run and RunTraced reports differ:\n%s\n%s", name, pb, tb)
		}
	}
}

// TestScenarioBitReproducible is the determinism regression gate: the
// same scenario with the same Seed must produce a byte-identical Report
// and a byte-identical trace — not just equal aggregates. Every
// random draw (arrivals, cascade victim order, chaos cycling, chaos
// seeds, scheduler tie-breaks) must come from the scenario's seed tree
// for this to hold. A compiled Plan run twice gives the same bytes too.
func TestScenarioBitReproducible(t *testing.T) {
	stress := func(seed uint64) *Scenario {
		return GenerateStress(StressSpec{Nodes: 64, Seed: seed, Origins: 16, Horizon: 10})
	}
	run := func(seed uint64, workers int) ([]byte, []byte) {
		return runBytes(t, "stress", func() (*Report, *trace.Tracer, error) { return stress(seed).RunTracedParallel(workers) })
	}

	r1, t1 := run(7, 1)
	r2, t2 := run(7, 1)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("same seed, different reports:\n%s\n%s", r1, r2)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same seed, different traces")
	}

	// Parallel workload synthesis must be invisible in the output: the
	// same seed with RunTracedParallel produces the identical bytes.
	r1p, t1p := run(7, 8)
	if !bytes.Equal(r1, r1p) {
		t.Fatalf("parallel workers changed the report:\n%s\n%s", r1, r1p)
	}
	if !bytes.Equal(t1, t1p) {
		t.Fatal("parallel workers changed the trace")
	}

	p, err := stress(7).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rp, tp := runBytes(t, "plan", p.RunTraced)
		if !bytes.Equal(r1, rp) || !bytes.Equal(t1, tp) {
			t.Fatalf("run %d of one Plan gave different bytes than RunTraced:\n%s\n%s", i+1, r1, rp)
		}
	}

	r3, t3 := run(8, 1)
	if bytes.Equal(r1, r3) && bytes.Equal(t1, t3) {
		t.Fatal("different seeds produced identical runs — seed is not wired through")
	}
}

// TestStressGeneratorDeterministic pins that generation itself is pure:
// two calls with the same spec marshal identically, so the stress
// harness always runs the same scenario.
func TestStressGeneratorDeterministic(t *testing.T) {
	a, err := json.Marshal(GenerateStress(StressSpec{Nodes: 200, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(GenerateStress(StressSpec{Nodes: 200, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("GenerateStress is not deterministic")
	}
}
