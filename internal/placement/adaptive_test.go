package placement

import (
	"math"
	"testing"
)

func TestAdaptiveExploresAllArmsFirst(t *testing.T) {
	_, env := testEnv(t)
	a := NewAdaptive(1.41)
	req := Request{Task: smallTask(), Origin: 0}
	seen := map[int]bool{}
	for i := 0; i < len(env.Nodes); i++ {
		n := a.Select(env, req)
		if seen[n.ID] {
			t.Fatalf("arm %d selected twice before all arms sampled", n.ID)
		}
		seen[n.ID] = true
		a.Observe(n.ID, 1.0)
	}
	if len(seen) != len(env.Nodes) {
		t.Fatalf("explored %d of %d arms", len(seen), len(env.Nodes))
	}
}

func TestAdaptiveConvergesToBestArm(t *testing.T) {
	_, env := testEnv(t)
	a := NewAdaptive(0.05) // modest exploration at the ~0.1s latency scale
	req := Request{Task: smallTask(), Origin: 0}
	// Simulated truth: node 1 is fastest, regardless of what the cost
	// model believes.
	truth := map[int]float64{0: 0.30, 1: 0.05, 2: 0.20}
	picks := map[int]int{}
	for i := 0; i < 500; i++ {
		n := a.Select(env, req)
		picks[n.ID]++
		a.Observe(n.ID, truth[n.ID])
	}
	if picks[1] < 400 {
		t.Fatalf("best arm picked %d/500 times; picks=%v", picks[1], picks)
	}
	if a.count[1] != int64(picks[1]) {
		t.Fatal("sample count bookkeeping wrong")
	}
	if got := a.sum[1] / float64(a.count[1]); math.Abs(got-truth[1]) > 1e-9 {
		t.Fatalf("mean latency = %v, want %v", got, truth[1])
	}
}

func TestAdaptiveKeepsExploringWithLargeBonus(t *testing.T) {
	_, env := testEnv(t)
	a := NewAdaptive(10) // exploration bonus dwarfs latency differences
	req := Request{Task: smallTask(), Origin: 0}
	truth := map[int]float64{0: 0.30, 1: 0.05, 2: 0.20}
	picks := map[int]int{}
	for i := 0; i < 300; i++ {
		n := a.Select(env, req)
		picks[n.ID]++
		a.Observe(n.ID, truth[n.ID])
	}
	for id, c := range picks {
		if c < 50 {
			t.Fatalf("arm %d starved (%d picks) despite huge exploration", id, c)
		}
	}
}

func TestAdaptiveName(t *testing.T) {
	if NewAdaptive(1).Name() != "adaptive-ucb" {
		t.Fatal("name wrong")
	}
}

func TestAdaptiveIsAPolicy(t *testing.T) {
	var _ Policy = NewAdaptive(1)
	var _ FeedbackPolicy = NewAdaptive(1)
}
