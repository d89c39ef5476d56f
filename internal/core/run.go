package core

import (
	"continuum/internal/faas"
	"continuum/internal/metrics"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
)

// Stats summarizes one workload run. All four runners produce it through
// the same engine (see engine.go), so every field has one definition:
type Stats struct {
	Completed int64

	// Latency is the per-unit latency distribution in seconds.
	//
	// Stream runs: one sample per completed job, submit→reply — from the
	// job's virtual submission time until its output message lands back
	// at the origin vertex, including input staging, queueing, and (for
	// reliable runs) retry backoff and re-dispatch.
	//
	// DAG runs: one sample per completed task, ready→finish — from the
	// instant the task's last prerequisite edge arrived (submission time
	// for roots) until its execution completes, including input staging,
	// core queueing, and any retries. Successor edge transfers are not
	// part of the producing task's latency; they show up in the
	// consumer's ready time instead.
	Latency *metrics.Histogram

	Joules   float64 // total energy integrated over the run
	Dollars  float64 // accumulated node-time + egress cost
	EgressB  float64 // bytes leaving billed nodes
	Makespan float64 // virtual time when the last unit finished

	// PerNode counts completed units per node name.
	PerNode map[string]int64
}

func newStats() *Stats {
	return &Stats{Latency: metrics.NewHistogram(), PerNode: make(map[string]int64)}
}

// StreamJob describes one online task submission.
type StreamJob struct {
	Task   *task.Task
	Origin int     // vertex the request (and its reply) is anchored to
	Submit float64 // virtual submission time
	// Priority is the job's admission class: under
	// ReliableOptions.Admission, lower classes shed first. The zero value
	// is normal, so priority-unaware workloads are unchanged.
	Priority faas.Priority
}

// RunStream executes jobs under the given policy: each job's inputs move
// to the selected node (via the fabric when enabled, else shipped from the
// origin), the task executes, and the result returns to the origin. The
// returned stats measure submit→reply latency. Candidates defaults to all
// nodes when nil.
//
// RunStream owns the kernel: it schedules all submissions and runs the
// simulation to completion. It is the zero-value-options configuration of
// the unified engine; see RunStreamReliable for the fault-aware one.
func (c *Continuum) RunStream(pol placement.Policy, jobs []StreamJob, candidates []*node.Node) *Stats {
	return c.runStream(pol, jobs, candidates, ReliableOptions{}).Stats
}

// RunDAG executes a static schedule under the full contention model: a
// task starts once every predecessor's edge data has arrived (bulk
// Transfer for cross-node edges) and its external inputs are staged
// (through the fabric when enabled). It returns measured stats; Makespan
// is the headline number for the F2 experiment.
//
// RunDAG owns the kernel: it runs the simulation to completion and errors
// if any task never became runnable (which would indicate a malformed
// schedule). It is the zero-value-options configuration of the unified
// engine; see RunDAGReliable for the fault-aware one.
func (c *Continuum) RunDAG(d *task.DAG, sched placement.Schedule, env *placement.Env) (*Stats, error) {
	st, err := c.runDAG(d, sched, env, ReliableOptions{})
	if st == nil {
		return nil, err
	}
	return st.Stats, err
}
