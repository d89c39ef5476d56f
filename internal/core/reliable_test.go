package core

import (
	"testing"

	"continuum/internal/fault"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

func reliableJobs(c *Continuum, n int, gap float64) []StreamJob {
	var jobs []StreamJob
	for i := 0; i < n; i++ {
		jobs = append(jobs, StreamJob{
			Task:   &task.Task{Name: "t", ScalarWork: 2.5e8, OutputBytes: 100},
			Origin: c.Nodes[0].ID,
			Submit: float64(i) * gap,
		})
	}
	return jobs
}

func TestReliableNoFaultsMatchesPlain(t *testing.T) {
	c1 := miniContinuum()
	plain := c1.RunStream(placement.GreedyLatency{}, reliableJobs(c1, 30, 0.2), nil, Options{})

	c2 := miniContinuum()
	rel := c2.RunStream(placement.GreedyLatency{}, reliableJobs(c2, 30, 0.2), nil,
		Options{MaxRetries: 3})

	if rel.Completed != plain.Completed || rel.Retries != 0 || rel.Lost != 0 {
		t.Fatalf("fault-free reliable run diverged: %+v vs %d completed", rel, plain.Completed)
	}
	if rel.Latency.Mean() != plain.Latency.Mean() {
		t.Fatalf("latency diverged: %v vs %v", rel.Latency.Mean(), plain.Latency.Mean())
	}
	if rel.SuccessRate() != 1 {
		t.Fatalf("SuccessRate = %v", rel.SuccessRate())
	}
}

func TestReliableAvoidsDownNodes(t *testing.T) {
	c := miniContinuum()
	// The gateway flaps constantly; the cloud never fails.
	gwFault := fault.Attach(c.K, "gw", fault.Spec{MeanUp: 0.5, MeanDown: 0.5}, 1e4, workload.NewRNG(1))
	opts := Options{
		Faults:     map[int]*fault.Target{c.Nodes[0].ID: gwFault},
		MaxRetries: 5,
	}
	st := c.RunStream(placement.GreedyLatency{}, reliableJobs(c, 50, 0.2), nil, opts)
	if st.Completed+st.Lost != 50 {
		t.Fatalf("accounting: %d completed + %d lost != 50", st.Completed, st.Lost)
	}
	if st.SuccessRate() < 0.9 {
		t.Fatalf("SuccessRate = %v with a reliable cloud available", st.SuccessRate())
	}
	// Most work should have landed on the never-failing cloud.
	if st.PerNode["cloud"] < st.PerNode["gw"] {
		t.Fatalf("placement ignored failures: %v", st.PerNode)
	}
}

func TestReliableRetriesOnLoss(t *testing.T) {
	// Force losses: a single candidate that fails frequently relative to
	// task duration, with generous retries — jobs eventually finish in an
	// up window, but retries must be visible.
	c := miniContinuum()
	gwFault := fault.Attach(c.K, "gw", fault.Spec{MeanUp: 0.3, MeanDown: 0.2}, 1e4, workload.NewRNG(2))
	opts := Options{
		Faults:     map[int]*fault.Target{c.Nodes[0].ID: gwFault},
		MaxRetries: 50,
	}
	// Only the gateway as candidate.
	st := c.RunStream(placement.GreedyLatency{},
		reliableJobs(c, 20, 0.5), c.Nodes[:1], opts)
	if st.Retries == 0 {
		t.Fatal("no retries despite constant flapping on the only candidate")
	}
	if st.Completed+st.Lost != 20 {
		t.Fatalf("accounting: %d + %d != 20", st.Completed, st.Lost)
	}
}

func TestReliableExhaustionCountsLost(t *testing.T) {
	c := miniContinuum()
	// Down almost always; zero retries.
	gwFault := fault.Attach(c.K, "gw", fault.Spec{MeanUp: 0.01, MeanDown: 100}, 1e4, workload.NewRNG(3))
	opts := Options{
		Faults:     map[int]*fault.Target{c.Nodes[0].ID: gwFault},
		MaxRetries: 0,
	}
	st := c.RunStream(placement.GreedyLatency{},
		reliableJobs(c, 10, 1.0), c.Nodes[:1], opts)
	if st.Lost == 0 {
		t.Fatal("no losses with an almost-always-down sole candidate and 0 retries")
	}
	if st.SuccessRate() > 0.9 {
		t.Fatalf("SuccessRate = %v, expected mostly lost", st.SuccessRate())
	}
}

func TestReliableLatencyIncludesRetries(t *testing.T) {
	// With flapping and retries, mean latency must exceed the fault-free
	// baseline.
	base := func() float64 {
		c := miniContinuum()
		st := c.RunStream(placement.GreedyLatency{},
			reliableJobs(c, 30, 0.5), c.Nodes[:1], Options{MaxRetries: 3})
		return st.Latency.Mean()
	}()
	c := miniContinuum()
	gwFault := fault.Attach(c.K, "gw", fault.Spec{MeanUp: 0.4, MeanDown: 0.3}, 1e4, workload.NewRNG(4))
	st := c.RunStream(placement.GreedyLatency{},
		reliableJobs(c, 30, 0.5), c.Nodes[:1],
		Options{Faults: map[int]*fault.Target{c.Nodes[0].ID: gwFault}, MaxRetries: 50})
	if st.Retries == 0 {
		t.Skip("no retries occurred; cannot compare")
	}
	if st.Latency.Mean() <= base {
		t.Fatalf("latency with retries %v not above fault-free %v", st.Latency.Mean(), base)
	}
}
