package core

import (
	"testing"

	"continuum/internal/placement"
	"continuum/internal/trace"
)

func TestStreamDeadlineMissCountsAndTraces(t *testing.T) {
	c := miniContinuum()
	c.Tracer = trace.New(0)
	// The gateway needs ~0.1s for 2.5e8 scalar ops; a 1µs deadline can
	// never be met, so every attempt misses and each job is eventually
	// lost after the retry budget.
	st := c.RunStreamReliable(placement.GreedyLatency{},
		reliableJobs(c, 5, 1.0), c.Nodes[:1],
		ReliableOptions{MaxRetries: 2, TaskDeadline: 1e-6})
	if st.Completed != 0 || st.Lost != 5 {
		t.Fatalf("completed=%d lost=%d, want 0/5", st.Completed, st.Lost)
	}
	// Each job burns 1 initial attempt + 2 retries, all missing.
	if st.DeadlineMisses != 15 {
		t.Fatalf("DeadlineMisses = %d, want 15", st.DeadlineMisses)
	}
	if st.Retries != 10 {
		t.Fatalf("Retries = %d, want 10", st.Retries)
	}
	// The trace must attribute every miss to the task and its attempt.
	var misses int
	maxAttempt := -1
	for _, e := range c.Tracer.Filter(trace.KindFailure) {
		if e.Err == "deadline exceeded" {
			misses++
			if e.Attempt > maxAttempt {
				maxAttempt = e.Attempt
			}
		}
	}
	if misses != 15 {
		t.Fatalf("trace deadline failures = %d, want 15", misses)
	}
	if maxAttempt != 2 {
		t.Fatalf("max traced attempt = %d, want 2", maxAttempt)
	}
}

func TestStreamDeadlineGenerousIsNoOp(t *testing.T) {
	c1 := miniContinuum()
	plain := c1.RunStream(placement.GreedyLatency{}, reliableJobs(c1, 20, 0.2), nil)
	c2 := miniContinuum()
	rel := c2.RunStreamReliable(placement.GreedyLatency{}, reliableJobs(c2, 20, 0.2), nil,
		ReliableOptions{MaxRetries: 3, TaskDeadline: 1e6})
	if rel.Completed != plain.Completed || rel.DeadlineMisses != 0 || rel.Lost != 0 {
		t.Fatalf("generous deadline diverged: %+v vs %d completed", rel, plain.Completed)
	}
	if rel.Latency.Mean() != plain.Latency.Mean() {
		t.Fatalf("latency diverged: %v vs %v", rel.Latency.Mean(), plain.Latency.Mean())
	}
}

func TestDAGDeadlineAbortsRun(t *testing.T) {
	d := reliableDAG() // six ~0.5s tasks pinned to the gateway
	c := miniContinuum()
	c.Tracer = trace.New(0)
	st, err := c.RunDAGReliable(d, gwSchedule(d), c.Env(),
		ReliableOptions{MaxRetries: 1, TaskDeadline: 0.01})
	if err == nil {
		t.Fatal("DAG met an impossible deadline")
	}
	if st.DeadlineMisses == 0 {
		t.Fatal("no deadline misses recorded")
	}
	found := false
	for _, e := range c.Tracer.Filter(trace.KindFailure) {
		if e.Err == "deadline exceeded" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no deadline-exceeded failure in trace")
	}
}

func TestDAGDeadlineGenerousMatchesPlain(t *testing.T) {
	d := reliableDAG()
	c1 := miniContinuum()
	plain, err := c1.RunDAG(d, gwSchedule(d), c1.Env())
	if err != nil {
		t.Fatal(err)
	}
	c2 := miniContinuum()
	rel, err := c2.RunDAGReliable(d, gwSchedule(d), c2.Env(),
		ReliableOptions{MaxRetries: 3, TaskDeadline: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Makespan != plain.Makespan || rel.DeadlineMisses != 0 {
		t.Fatalf("generous DAG deadline diverged: %v vs %v (misses %d)",
			rel.Makespan, plain.Makespan, rel.DeadlineMisses)
	}
}
