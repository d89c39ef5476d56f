package core

import (
	"continuum/internal/faas"
	"continuum/internal/metrics"
	"continuum/internal/task"
)

// Stats summarizes one workload run. Both runners produce it through the
// same engine (see engine.go), so every field has one definition:
type Stats struct {
	Completed int64
	// Retries counts re-dispatches (loss or no live candidate).
	Retries int64
	// Lost counts units abandoned after exhausting retries.
	Lost int64
	// DeadlineMisses counts attempts that overran TaskDeadline (each one
	// also consumed a retry or contributed to Lost).
	DeadlineMisses int64
	// SpeculativeLaunches counts backup replicas dispatched by the
	// Speculate policy.
	SpeculativeLaunches int64
	// SpeculativeWins counts units whose backup replica delivered first.
	SpeculativeWins int64
	// PreemptedTasks counts losing replicas whose results were discarded
	// because a sibling finished first. Their node time and energy stay
	// billed — the work physically ran — which is the wasted-work cost of
	// speculation.
	PreemptedTasks int64
	// ChaosDrops counts attempts dropped by the Disturb hook (each one
	// also consumed a retry or contributed to Lost).
	ChaosDrops int64
	// Suppressed counts stream submissions silenced by DropSubmit
	// (origin down at submit time). They are not failures: the request
	// was never made, so it appears in neither Completed nor Lost.
	Suppressed int64
	// Shed counts stream jobs the Admission gate refused, on arrival or
	// by evicting them from its queue (the sum of ShedByClass). Shed
	// jobs never started any work, so like Suppressed they appear in
	// neither Completed nor Lost.
	Shed int64
	// ShedByClass breaks Shed down by priority class
	// (index Priority.Class(): 0 low, 1 normal, 2 high).
	ShedByClass [faas.NumPriorities]int64

	// Latency is the per-unit latency distribution in seconds.
	//
	// Stream runs: one sample per completed job, submit→reply — from the
	// job's virtual submission time until its output message lands back
	// at the origin vertex, including input staging, queueing, and any
	// retry backoff and re-dispatch.
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

// SuccessRate returns completed/(completed+lost).
func (s *Stats) SuccessRate() float64 {
	total := s.Completed + s.Lost
	if total == 0 {
		return 0
	}
	return float64(s.Completed) / float64(total)
}

func newStats() *Stats {
	return &Stats{Latency: metrics.NewHistogram(), PerNode: make(map[string]int64)}
}

// StreamJob describes one online task submission.
type StreamJob struct {
	Task   *task.Task
	Origin int     // vertex the request (and its reply) is anchored to
	Submit float64 // virtual submission time
	// Priority is the job's admission class: under Options.Admission,
	// lower classes shed first. The zero value is normal, so
	// priority-unaware workloads are unchanged.
	Priority faas.Priority
}
