package core

import (
	"testing"

	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/trace"
)

// pinFirst always selects the first eligible node of the env — with it
// the primary placement is deterministic and the backup (the policy
// re-selected with the primary excluded) deterministically falls to the
// next candidate.
type pinFirst struct{}

func (pinFirst) Name() string { return "pin-first" }
func (pinFirst) Select(env *placement.Env, req placement.Request) *node.Node {
	if cands := env.Candidates(); len(cands) > 0 {
		return cands[0]
	}
	return nil
}

// specContinuum builds two single-core gateway-class nodes: one core each
// makes queueing stragglers trivially reproducible (a whale on n1 blocks
// everything behind it while n2 idles).
func specContinuum() *Continuum {
	c := New()
	cat := node.Catalog()
	s1 := cat["gateway"]
	s1.Name, s1.Cores = "n1", 1
	s2 := cat["gateway"]
	s2.Name, s2.Cores = "n2", 1
	a := c.AddNode(s1)
	b := c.AddNode(s2)
	c.Connect(a.ID, b.ID, 0.020, 1.25e9)
	return c
}

// specJobs is the canonical straggler bag: a 5s whale submitted first,
// then a 0.1s mouse that queues behind it on a pin-first single core.
func specJobs(c *Continuum) []StreamJob {
	return []StreamJob{
		{Task: &task.Task{Name: "whale", ScalarWork: 12.5e9, OutputBytes: 10},
			Origin: c.Nodes[0].ID, Submit: 0},
		{Task: &task.Task{Name: "mouse", ScalarWork: 2.5e8, OutputBytes: 10},
			Origin: c.Nodes[0].ID, Submit: 0.01},
	}
}

// TestSpeculationRescuesQueuedStraggler is the core property: a mouse
// queued behind a whale exceeds Multiple x its expected runtime, a backup
// launches on the idle node, wins, and the stale primary is preempted on
// delivery — with every stat consistent and no double-completion.
func TestSpeculationRescuesQueuedStraggler(t *testing.T) {
	base := specContinuum()
	bst := base.RunStreamReliable(pinFirst{}, specJobs(base), nil, ReliableOptions{MaxRetries: 1})
	if bst.Completed != 2 {
		t.Fatalf("baseline completed %d, want 2", bst.Completed)
	}
	if bst.Latency.Quantile(0) < 4 {
		t.Fatalf("baseline min latency %v — the mouse was not queued behind the whale", bst.Latency.Quantile(0))
	}

	c := specContinuum()
	st := c.RunStreamReliable(pinFirst{}, specJobs(c), nil, ReliableOptions{
		MaxRetries: 1,
		Speculate:  SpeculateOptions{Multiple: 2},
	})
	if st.Completed != 2 {
		t.Fatalf("completed %d, want 2 (no double-completion, no loss)", st.Completed)
	}
	if st.SpeculativeLaunches != 1 || st.SpeculativeWins != 1 || st.PreemptedTasks != 1 {
		t.Fatalf("launches/wins/preempted = %d/%d/%d, want 1/1/1",
			st.SpeculativeLaunches, st.SpeculativeWins, st.PreemptedTasks)
	}
	if st.Latency.Quantile(0) > 1 {
		t.Fatalf("rescued mouse latency %v, want < 1s (baseline %v)", st.Latency.Quantile(0), bst.Latency.Quantile(0))
	}
	// The whale was never hedged (its own 2x threshold exceeds its
	// runtime), so it still completes on n1; the mouse's winning backup
	// ran on n2.
	if st.PerNode["n1"] != 1 || st.PerNode["n2"] != 1 {
		t.Fatalf("PerNode = %v, want n1:1 n2:1", st.PerNode)
	}
	if st.Retries != 0 || st.Lost != 0 {
		t.Fatalf("retries %d lost %d, want 0/0", st.Retries, st.Lost)
	}
}

// TestSpeculationNoBackupCandidate: with a single node there is nowhere
// to hedge to — the policy must degrade to exactly the non-speculative
// run rather than stall or double-run.
func TestSpeculationNoBackupCandidate(t *testing.T) {
	mk := func() *Continuum {
		c := New()
		cat := node.Catalog()
		s := cat["gateway"]
		s.Name, s.Cores = "only", 1
		c.AddNode(s)
		return c
	}
	c1 := mk()
	base := c1.RunStreamReliable(pinFirst{}, specJobs(c1), nil, ReliableOptions{MaxRetries: 1})
	c2 := mk()
	spec := c2.RunStreamReliable(pinFirst{}, specJobs(c2), nil, ReliableOptions{
		MaxRetries: 1,
		Speculate:  SpeculateOptions{Multiple: 2},
	})
	if spec.SpeculativeLaunches != 0 || spec.SpeculativeWins != 0 || spec.PreemptedTasks != 0 {
		t.Fatalf("single-node run speculated: launches/wins/preempted = %d/%d/%d",
			spec.SpeculativeLaunches, spec.SpeculativeWins, spec.PreemptedTasks)
	}
	statsEqual(t, "no-backup-candidate", base.Stats, spec.Stats)
}

// TestSpeculationQuantileTrigger exercises the latency-quantile hedge
// delay: round-robin placement alternates a fast and a 10x-degraded node,
// so after the first (fast) sample every slow-node job exceeds the
// observed quantile and is rescued by a backup on the fast node.
func TestSpeculationQuantileTrigger(t *testing.T) {
	c := New()
	cat := node.Catalog()
	fast := cat["gateway"]
	fast.Name, fast.Cores = "fast", 1
	slow := cat["gateway"]
	slow.Name, slow.Cores = "slow", 1
	slow.CoreFlops /= 10 // the degraded node: 1s per 2.5e8-flop task
	a := c.AddNode(fast)
	b := c.AddNode(slow)
	c.Connect(a.ID, b.ID, 0.002, 1.25e9)

	var jobs []StreamJob
	for i := 0; i < 6; i++ {
		jobs = append(jobs, StreamJob{
			Task:   &task.Task{Name: "t", ScalarWork: 2.5e8, OutputBytes: 10},
			Origin: a.ID,
			Submit: float64(i) * 2, // spaced out: no queueing, pure node speed
		})
	}
	st := c.RunStreamReliable(&placement.RoundRobin{}, jobs, nil, ReliableOptions{
		MaxRetries: 1,
		Speculate:  SpeculateOptions{Quantile: 0.5, MinSamples: 1},
	})
	if st.Completed != int64(len(jobs)) {
		t.Fatalf("completed %d, want %d", st.Completed, len(jobs))
	}
	if st.SpeculativeWins == 0 {
		t.Fatal("quantile trigger never rescued a slow-node job")
	}
	if st.Latency.Quantile(1) > 1 {
		t.Fatalf("max latency %v, want < 1s (slow node alone takes ~1s)", st.Latency.Quantile(1))
	}
}

// TestSpeculationDAG covers the DAG runner's hook: two parallel roots
// pinned to the same single core; the queued mouse is hedged to the idle
// node and wins there.
func TestSpeculationDAG(t *testing.T) {
	c := specContinuum()
	d := task.NewDAG("spec")
	d.AddTask("whale", 12.5e9, 10)
	d.AddTask("mouse", 2.5e8, 10)
	sched := placement.Schedule{Algorithm: "manual", Assign: map[task.ID]int{0: 0, 1: 0}}
	st, err := c.RunDAGReliable(d, sched, c.Env(), ReliableOptions{
		MaxRetries: 1,
		Speculate:  SpeculateOptions{Multiple: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 2 {
		t.Fatalf("completed %d, want 2", st.Completed)
	}
	if st.SpeculativeLaunches != 1 || st.SpeculativeWins != 1 || st.PreemptedTasks != 1 {
		t.Fatalf("launches/wins/preempted = %d/%d/%d, want 1/1/1",
			st.SpeculativeLaunches, st.SpeculativeWins, st.PreemptedTasks)
	}
	if st.PerNode["n2"] != 1 {
		t.Fatalf("PerNode = %v, want the mouse's winning backup on n2", st.PerNode)
	}
}

// TestSpeculationTraceAttribution pins the trace contract: the primary
// and its backup carry distinct attempt numbers, and the losing replica's
// discarded delivery is recorded as a Preempt instant with the loser's
// attempt — so exported timelines can tell the replicas apart.
func TestSpeculationTraceAttribution(t *testing.T) {
	c := specContinuum()
	c.Tracer = trace.New(0)
	c.RunStreamReliable(pinFirst{}, specJobs(c), nil, ReliableOptions{
		MaxRetries: 1,
		Speculate:  SpeculateOptions{Multiple: 2},
	})
	preempts := c.Tracer.Filter(trace.KindPreempt)
	if len(preempts) != 1 {
		t.Fatalf("preempt events = %d, want 1", len(preempts))
	}
	if preempts[0].Attempt != 0 {
		t.Fatalf("preempted attempt = %d, want 0 (the stale primary)", preempts[0].Attempt)
	}
	// The mouse executed twice — primary (attempt 0) and backup (attempt
	// 1) — and both executions must appear as task spans with their own
	// attempt numbers.
	attempts := map[int]bool{}
	for _, sp := range c.Tracer.Filter(trace.KindTask) {
		if sp.Name == "mouse" {
			attempts[sp.Attempt] = true
		}
	}
	if !attempts[0] || !attempts[1] {
		t.Fatalf("mouse task span attempts = %v, want both 0 and 1", attempts)
	}
}
