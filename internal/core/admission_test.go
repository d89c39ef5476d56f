package core

// Tests for the engine's admission gate (Options.Admission, the
// live endpoint's faas.Gate in kernel time) and the cordon hook — the
// simulator halves of the live path's faas admitter and
// faas.Endpoint.SetCordon.

import (
	"testing"

	"continuum/internal/faas"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
)

// priorityJobs submits count interleaved low/normal/high triples at the
// same instant, so the admission decision is purely about watermarks,
// not timing: as the gate's queue fills, low hits its watermark first
// while high keeps being queued.
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

// TestAdmissionShedsLowestFirst: with a burst far over the gate's
// capacity and queue bound, the low class must shed the most and the
// high class the least (graduated watermarks), every shed job must be
// accounted, and nothing may be lost — shedding happens before any work
// starts.
func TestAdmissionShedsLowestFirst(t *testing.T) {
	c := miniContinuum()
	const triples = 30
	st := c.RunStream(placement.GreedyLatency{}, priorityJobs(c, triples), nil,
		Options{Admission: 9})

	total := int64(3 * triples)
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
	// The gate admits 9 and queues up to 36 (4 × capacity), with class
	// limits 12/24/36 on the queue: low stops queueing at 12 waiters,
	// normal at 24 and then evicts queued low jobs, high evicts whatever
	// is lower — so shed counts are strictly lowest-first.
	if st.ShedByClass[0] <= st.ShedByClass[1] || st.ShedByClass[1] <= st.ShedByClass[2] {
		t.Fatalf("shedding not lowest-first: %v", st.ShedByClass)
	}
	if st.ShedByClass[2] == triples {
		t.Fatalf("high class fully shed: %v", st.ShedByClass)
	}
}

// TestAdmissionQueuesBurstOverCapacity: a burst over the gate's
// capacity but inside its queue bound waits for slots instead of
// shedding — 3 slots, 6 queued of a normal-class limit of 8 — and every
// queued job starts once a completion frees its slot.
func TestAdmissionQueuesBurstOverCapacity(t *testing.T) {
	c := miniContinuum()
	st := c.RunStream(placement.GreedyLatency{}, reliableJobs(c, 9, 0), nil,
		Options{Admission: 3})
	if st.Shed != 0 || st.Completed != 9 || st.Lost != 0 {
		t.Fatalf("burst of 9 at capacity 3: %d completed, %d shed, %d lost; want 9/0/0",
			st.Completed, st.Shed, st.Lost)
	}
}

// TestAdmissionEvictsLowerClass: a higher-class arrival at its class's
// full share of the queue evicts a queued lower-class job, which counts
// as shed in its own class. Capacity 3 gives a queue bound of 12: low
// may fill 4 places, normal 8.
func TestAdmissionEvictsLowerClass(t *testing.T) {
	c := miniContinuum()
	var jobs []StreamJob
	for _, p := range []struct {
		prio faas.Priority
		n    int
	}{
		{faas.PriorityNormal, 3}, // admitted: every slot is busy
		{faas.PriorityLow, 4},    // queued: low's share is full
		{faas.PriorityNormal, 5}, // 4 queue; the 5th finds normal's share full
	} {
		for i := 0; i < p.n; i++ {
			jobs = append(jobs, StreamJob{
				Task:   &task.Task{Name: "t", ScalarWork: 2.5e8, OutputBytes: 100},
				Origin: c.Nodes[0].ID, Priority: p.prio,
			})
		}
	}
	st := c.RunStream(placement.GreedyLatency{}, jobs, nil, Options{Admission: 3})
	if st.ShedByClass != [faas.NumPriorities]int64{1, 0, 0} || st.Shed != 1 {
		t.Fatalf("ShedByClass = %v (Shed %d), want the one evicted low job", st.ShedByClass, st.Shed)
	}
	if st.Completed != 11 || st.Lost != 0 {
		t.Fatalf("%d completed, %d lost; want 11 and 0", st.Completed, st.Lost)
	}
}

// TestAdmissionReleasesOnCompletion: spacing the jobs out lets each
// finish before the next submits, so even a bound of 1 admits everything
// — proving completions release their admission slot.
func TestAdmissionReleasesOnCompletion(t *testing.T) {
	c := miniContinuum()
	st := c.RunStream(placement.GreedyLatency{}, reliableJobs(c, 10, 5.0), nil,
		Options{Admission: 3})
	if st.Shed != 0 {
		t.Fatalf("spaced jobs shed %d times; admission slots leaked", st.Shed)
	}
	if st.Completed != 10 {
		t.Fatalf("Completed = %d, want 10", st.Completed)
	}
}

// TestAdmissionReleasesOnLoss: a lost job frees its slot too. With one
// slot and every node cordoned, the burst's first job holds the slot
// through its retry and is lost; the two queued behind it then start in
// turn and are lost the same way.
func TestAdmissionReleasesOnLoss(t *testing.T) {
	c := miniContinuum()
	st := c.RunStream(placement.GreedyLatency{}, reliableJobs(c, 3, 0), nil,
		Options{Admission: 1, MaxRetries: 1, Cordoned: func(*node.Node) bool { return true }})
	if st.Lost != 3 || st.Retries != 3 || st.Shed != 0 {
		t.Fatalf("Lost/Retries/Shed = %d/%d/%d; want every queued job started and lost (3/3/0)",
			st.Lost, st.Retries, st.Shed)
	}
}

// TestAdmissionDisabledIsZeroCost: the zero value admits everything,
// so it matches, field for field, a gate too wide to ever queue or shed
// (the engine's equivalence property extends to the new hook).
func TestAdmissionDisabledIsZeroCost(t *testing.T) {
	c1 := miniContinuum()
	plain := c1.RunStream(placement.GreedyLatency{}, reliableJobs(c1, 20, 0.1), nil, Options{})
	c2 := miniContinuum()
	wide := c2.RunStream(placement.GreedyLatency{}, reliableJobs(c2, 20, 0.1), nil, Options{Admission: 20})
	statsEqual(t, "admission", plain, wide)
}

// TestCordonedNodeGetsNoNewWork: a cordon hook must steer every
// placement away from the cordoned node without losing anything.
func TestCordonedNodeGetsNoNewWork(t *testing.T) {
	c := miniContinuum()
	gw := c.Nodes[0] // miniContinuum adds the gateway first
	st := c.RunStream(placement.GreedyLatency{}, reliableJobs(c, 20, 0.2), nil,
		Options{Cordoned: func(n *node.Node) bool { return n == gw }})
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
	st := c.RunStream(placement.GreedyLatency{}, reliableJobs(c, 5, 0.2), nil,
		Options{MaxRetries: 2, Cordoned: func(*node.Node) bool { return true }})
	if st.Lost != 5 {
		t.Fatalf("Lost = %d, want 5 with everything cordoned", st.Lost)
	}
	if st.Retries != 10 {
		t.Fatalf("Retries = %d, want 2 per job", st.Retries)
	}
}
