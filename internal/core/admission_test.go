package core

// Tests for the engine's admission control (ReliableOptions.Admission,
// which sheds at faas.ClassLimit) and the cordon hook — the simulator
// halves of the live path's faas admitter and faas.Endpoint.SetCordon.

import (
	"testing"

	"continuum/internal/faas"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
)

// priorityJobs submits count interleaved low/normal/high triples at the
// same instant, so the admission decision is purely about watermarks,
// not timing: as the bound fills, low hits its watermark first while
// high keeps being admitted.
func priorityJobs(c *Continuum, count int) []StreamJob {
	var jobs []StreamJob
	for i := 0; i < count; i++ {
		for _, p := range []faas.Priority{faas.PriorityLow, faas.PriorityNormal, faas.PriorityHigh} {
			jobs = append(jobs, StreamJob{
				Task:     &task.Task{Name: "t", ScalarWork: 2.5e8, OutputBytes: 100},
				Origin:   c.Nodes[0].ID,
				Submit:   0,
				Priority: p,
			})
		}
	}
	return jobs
}

// TestAdmissionShedsLowestFirst: with a burst far over the outstanding
// bound, the low class must shed the most and the high class the least
// (graduated watermarks), every shed job must be accounted, and nothing
// may be lost — shedding happens before any work starts.
func TestAdmissionShedsLowestFirst(t *testing.T) {
	c := miniContinuum()
	st := c.RunStreamReliable(placement.GreedyLatency{}, priorityJobs(c, 12), nil,
		ReliableOptions{Admission: AdmissionOptions{MaxOutstanding: 9}})

	total := int64(3 * 12)
	if st.Completed+st.Shed != total {
		t.Fatalf("accounting: %d completed + %d shed != %d", st.Completed, st.Shed, total)
	}
	if st.Lost != 0 {
		t.Fatalf("admission shed must not count as Lost: %d", st.Lost)
	}
	var sum int64
	for _, n := range st.ShedByClass {
		sum += n
	}
	if sum != st.Shed {
		t.Fatalf("ShedByClass %v does not sum to Shed %d", st.ShedByClass, st.Shed)
	}
	// Graduated watermarks with interleaved triples against a bound of 9
	// (limits 3/6/9): low stops at 1 admitted, normal at 3, high at 5 —
	// so shed counts are strictly lowest-first.
	if st.ShedByClass[0] <= st.ShedByClass[1] || st.ShedByClass[1] <= st.ShedByClass[2] {
		t.Fatalf("shedding not lowest-first: %v", st.ShedByClass)
	}
	if st.ShedByClass[2] == int64(12) {
		t.Fatalf("high class fully shed: %v", st.ShedByClass)
	}
}

// TestAdmissionReleasesOnCompletion: spacing the jobs out lets each
// finish before the next submits, so even a bound of 1 admits everything
// — proving completions release their admission slot.
func TestAdmissionReleasesOnCompletion(t *testing.T) {
	c := miniContinuum()
	st := c.RunStreamReliable(placement.GreedyLatency{}, reliableJobs(c, 10, 5.0), nil,
		ReliableOptions{Admission: AdmissionOptions{MaxOutstanding: 3}})
	if st.Shed != 0 {
		t.Fatalf("spaced jobs shed %d times; admission slots leaked", st.Shed)
	}
	if st.Completed != 10 {
		t.Fatalf("Completed = %d, want 10", st.Completed)
	}
}

// TestAdmissionDisabledIsZeroCost: the zero value admits everything and
// reproduces the plain run exactly (the engine's equivalence property
// extends to the new hook).
func TestAdmissionDisabledIsZeroCost(t *testing.T) {
	c1 := miniContinuum()
	plain := c1.RunStream(placement.GreedyLatency{}, reliableJobs(c1, 20, 0.1), nil)
	c2 := miniContinuum()
	rel := c2.RunStreamReliable(placement.GreedyLatency{}, reliableJobs(c2, 20, 0.1), nil,
		ReliableOptions{})
	if rel.Shed != 0 || rel.Completed != plain.Completed || rel.Latency.Mean() != plain.Latency.Mean() {
		t.Fatalf("zero-value admission diverged: %+v vs %d completed", rel, plain.Completed)
	}
}

// TestCordonedNodeGetsNoNewWork: a cordon hook must steer every
// placement away from the cordoned node without losing anything.
func TestCordonedNodeGetsNoNewWork(t *testing.T) {
	c := miniContinuum()
	gw := c.Nodes[0] // miniContinuum adds the gateway first
	st := c.RunStreamReliable(placement.GreedyLatency{}, reliableJobs(c, 20, 0.2), nil,
		ReliableOptions{Cordoned: func(n *node.Node) bool { return n == gw }})
	if st.Completed != 20 || st.Lost != 0 {
		t.Fatalf("cordon run: %d completed, %d lost", st.Completed, st.Lost)
	}
	if st.PerNode["gw"] != 0 {
		t.Fatalf("cordoned node received %d new jobs", st.PerNode["gw"])
	}
	if st.PerNode["cloud"] != 20 {
		t.Fatalf("work did not fail over to the cloud: %v", st.PerNode)
	}
}

// TestCordonAllRetriesThenLoses: with every candidate cordoned, jobs
// burn their retries waiting and end Lost — the cordon never silently
// drops or wedges the run.
func TestCordonAllRetriesThenLoses(t *testing.T) {
	c := miniContinuum()
	st := c.RunStreamReliable(placement.GreedyLatency{}, reliableJobs(c, 5, 0.2), nil,
		ReliableOptions{MaxRetries: 2, Cordoned: func(*node.Node) bool { return true }})
	if st.Lost != 5 {
		t.Fatalf("Lost = %d, want 5 with everything cordoned", st.Lost)
	}
	if st.Retries != 10 {
		t.Fatalf("Retries = %d, want 2 per job", st.Retries)
	}
}
