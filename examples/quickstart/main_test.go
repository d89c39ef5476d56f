package main

import "testing"

// TestEstimateIndependentOfWorkers: the shards own their RNG streams, so
// the pool size changes only the schedule, never the estimate.
func TestEstimateIndependentOfWorkers(t *testing.T) {
	serial := estimatePi(6, 5000, 1)
	if parallel := estimatePi(6, 5000, 4); parallel != serial {
		t.Fatalf("4 workers estimate %v, 1 worker %v", parallel, serial)
	}
	if serial < 3.0 || serial > 3.3 {
		t.Fatalf("estimate %v far from π", serial)
	}
}
