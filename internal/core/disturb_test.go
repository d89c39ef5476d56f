package core

import (
	"testing"

	"continuum/internal/node"
	"continuum/internal/placement"
)

// TestDisturbDropConsumesRetries: a Disturb hook that drops every
// attempt on one node must show up as ChaosDrops and force retries,
// while the other node absorbs the work and nothing is lost.
func TestDisturbDropConsumesRetries(t *testing.T) {
	c := miniContinuum()
	gwID := c.Nodes[0].ID
	opts := Options{
		MaxRetries: 5,
		Disturb: func(n *node.Node) (bool, float64) {
			return n.ID == gwID, 0
		},
	}
	st := c.RunStream(&placement.RoundRobin{}, reliableJobs(c, 30, 0.2), nil, opts)
	if st.ChaosDrops == 0 {
		t.Fatal("no chaos drops recorded")
	}
	if st.Retries == 0 {
		t.Fatal("drops did not consume retries")
	}
	if st.Lost != 0 {
		t.Fatalf("%d lost with a healthy cloud available", st.Lost)
	}
	if st.PerNode["gw"] != 0 {
		t.Fatalf("work completed on a node that drops everything: %v", st.PerNode)
	}
}

// TestDisturbDelayAddsLatency: a pure-delay hook must not drop anything
// but must show up in measured latency.
func TestDisturbDelayAddsLatency(t *testing.T) {
	base := miniContinuum()
	plain := base.RunStream(placement.GreedyLatency{}, reliableJobs(base, 20, 0.3), nil,
		Options{MaxRetries: 3})

	slow := miniContinuum()
	st := slow.RunStream(placement.GreedyLatency{}, reliableJobs(slow, 20, 0.3), nil,
		Options{
			MaxRetries: 3,
			Disturb:    func(*node.Node) (bool, float64) { return false, 0.05 },
		})
	if st.ChaosDrops != 0 || st.Lost != 0 || st.Retries != 0 {
		t.Fatalf("delay-only disturb dropped work: %+v", st)
	}
	if st.Completed != plain.Completed {
		t.Fatalf("completed %d vs plain %d", st.Completed, plain.Completed)
	}
	if got, want := st.Latency.Mean(), plain.Latency.Mean()+0.05; got < want-1e-9 {
		t.Fatalf("mean latency %v, want >= %v (plain + injected 50ms)", got, want)
	}
}

// TestDropSubmitSuppresses: submissions from a down origin are silenced
// before they enter the engine, mirroring a live node whose generator is
// paused while it is failed.
func TestDropSubmitSuppresses(t *testing.T) {
	c := miniContinuum()
	gwID := c.Nodes[0].ID
	jobs := reliableJobs(c, 30, 0.2)
	// Origin down for submit times in [2, 4): 10 of the 30 jobs.
	down := func(at float64) bool { return at >= 2 && at < 4 }
	var noted int
	for _, j := range jobs {
		if down(j.Submit) {
			noted++
		}
	}
	opts := Options{
		MaxRetries: 3,
		DropSubmit: func(origin int) bool {
			return origin == gwID && down(c.K.Now())
		},
	}
	st := c.RunStream(placement.GreedyLatency{}, jobs, nil, opts)
	if st.Suppressed != int64(noted) {
		t.Fatalf("suppressed %d, want %d", st.Suppressed, noted)
	}
	if st.Completed != int64(len(jobs)-noted) {
		t.Fatalf("completed %d, want %d", st.Completed, len(jobs)-noted)
	}
	if st.Lost != 0 {
		t.Fatalf("suppressed submissions counted as lost: %+v", st)
	}
}

// TestDisturbZeroOptionsUnchanged: leaving the hooks nil must be
// byte-for-byte the pre-hook engine.
func TestDisturbZeroOptionsUnchanged(t *testing.T) {
	run := func(opts Options) *Stats {
		c := miniContinuum()
		return c.RunStream(placement.GreedyLatency{}, reliableJobs(c, 25, 0.2), nil, opts)
	}
	a := run(Options{MaxRetries: 3})
	b := run(Options{
		MaxRetries: 3,
		Disturb:    func(*node.Node) (bool, float64) { return false, 0 },
		DropSubmit: func(int) bool { return false },
	})
	if a.Completed != b.Completed || a.Latency.Mean() != b.Latency.Mean() {
		t.Fatalf("no-op hooks changed the run: %+v vs %+v", a, b)
	}
}
