package core

import (
	"continuum/internal/placement"
	"continuum/internal/task"
)

// RunDAGReliable executes a static schedule on a continuum with failing
// nodes, with task-level retry: a completed task's outputs are durable
// (checkpointed), but a task whose host fails mid-execution is lost and
// re-executed once the host repairs — up to MaxRetries times per task,
// after which the run aborts with an error. The makespan inflation versus
// the failure-free run quantifies what checkpointing buys workflows on a
// flaky continuum.
//
// Retries wait for the assigned node to come back (static schedules pin
// tasks); RetryBackoff paces the re-check while the node is down.
//
// It is the same engine as RunDAG with the fault hook engaged: external
// inputs stage through the fabric when one is enabled, and task and
// transfer spans are recorded exactly as in base runs (plus failure
// instants, and task spans carrying Err, for lost attempts).
func (c *Continuum) RunDAGReliable(d *task.DAG, sched placement.Schedule, env *placement.Env, opts ReliableOptions) (*ReliableStats, error) {
	return c.runDAG(d, sched, env, opts)
}
