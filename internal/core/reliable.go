package core

import (
	"continuum/internal/fault"
	"continuum/internal/node"
	"continuum/internal/placement"
)

// ReliableOptions configures failure-aware execution. It is the engine's
// fault hook (see engine.go): the zero value makes every availability and
// epoch check a no-op, so a runner configured with it reproduces the
// corresponding base runner exactly.
type ReliableOptions struct {
	// Faults maps node IDs to their failure targets; nodes absent from
	// the map are considered always-up.
	Faults map[int]*fault.Target
	// MaxRetries bounds re-dispatches per job (0 = fail on first loss).
	MaxRetries int
	// RetryBackoff is the delay before re-dispatching a lost or
	// unplaceable job. Defaults to 0.1s when unset.
	RetryBackoff float64
	// TaskDeadline bounds each attempt (virtual seconds, dispatch through
	// execution). An attempt that overruns is treated like a lost one: a
	// Failure trace record ("deadline exceeded") attributes it and the
	// retry budget applies. 0 disables the bound. It mirrors the live
	// path's faas.EndpointConfig.ExecTimeout, so simulated and real runs
	// share one deadline semantics.
	TaskDeadline float64
	// Speculate enables hedged (speculative) execution: a straggling
	// attempt gets a backup replica on a different candidate node, first
	// finisher wins, the loser is preempted. The zero value disables it.
	// It mirrors the live path's wire.HedgeConfig, so simulated and real
	// runs share one tail-latency semantics.
	Speculate SpeculateOptions
	// Disturb, when set, is consulted once per attempt at dispatch: it
	// may drop the attempt (treated exactly like an epoch loss — the
	// retry budget applies) and/or delay its entry into the pipeline by
	// the returned virtual seconds. It is the simulator mirror of the
	// live path's per-request fault.Chaos draw, so scenario chaos events
	// mean the same thing on both backends. Nil disturbs nothing.
	Disturb func(n *node.Node) (drop bool, delay float64)
	// DropSubmit, when set, is consulted at each stream job's submit
	// time; returning true silences the submission entirely (counted in
	// Suppressed, not Lost). It models an origin that is itself down —
	// a failed gateway generates no traffic — matching the live runner,
	// which pauses a failed node's request generator. Nil submits all.
	DropSubmit func(origin int) bool
	// Admission, when enabled, bounds how many stream jobs may be
	// outstanding (admitted, not yet completed or lost) with graduated
	// per-priority watermarks: low-priority jobs shed first as the bound
	// fills. It is the simulator mirror of the live path's
	// faas.AdmissionConfig, so overload experiments compare across
	// backends. The zero value admits everything.
	Admission AdmissionOptions
	// Cordoned, when set, is consulted wherever candidates are chosen:
	// a cordoned node receives no NEW work (placement, retries, and
	// speculative backups all skip it) but work already dispatched to it
	// finishes normally — the difference from a Faults downtime, which
	// loses in-flight attempts. It is the simulator half of the
	// scenario "cordon" event; the live half is faas.Endpoint.SetCordon.
	// Nil cordons nothing.
	Cordoned func(n *node.Node) bool
}

// Stream job priority classes, mirroring internal/faas: the zero value
// is normal, so existing workloads are unaffected.
const (
	PriorityLow    = -1
	PriorityNormal = 0
	PriorityHigh   = 1

	numPriorityClasses = 3
)

// AdmissionOptions is the engine's admission-control mirror. Unlike the
// live controller there is no wait queue to evict from — the simulated
// decision happens once, at submit time — so the model is the graduated
// watermark alone: a class-p job is shed when outstanding work has
// already consumed that class's share of the bound.
type AdmissionOptions struct {
	// MaxOutstanding is the bound on admitted-but-unfinished stream
	// jobs. Class limits are graduated across it exactly like
	// faas.AdmissionConfig.MaxQueue: low sheds beyond 1/3 of the bound,
	// normal beyond 2/3, high only at the full bound. <= 0 disables
	// admission control.
	MaxOutstanding int
}

// enabled reports whether admission control is configured.
func (a AdmissionOptions) enabled() bool { return a.MaxOutstanding > 0 }

// classOf clamps a StreamJob priority to its class index in
// [0, numPriorityClasses).
func classOf(p int) int {
	if p < PriorityLow {
		p = PriorityLow
	}
	if p > PriorityHigh {
		p = PriorityHigh
	}
	return p - PriorityLow
}

// classLimit is the graduated watermark for one class.
func (a AdmissionOptions) classLimit(cls int) int {
	limit := a.MaxOutstanding * (cls + 1) / numPriorityClasses
	if limit < 1 {
		limit = 1
	}
	return limit
}

// SpeculateOptions configures speculative (hedged) execution. A backup
// replica launches once an attempt has been in flight longer than the
// hedge delay; whichever replica delivers first wins, and the loser's
// result is discarded (its node time stays billed — the work physically
// ran). The zero value disables speculation, preserving the engine's
// zero-options equivalence property.
type SpeculateOptions struct {
	// Quantile, when > 0, derives the hedge delay from the observed
	// latency distribution: a backup launches once an attempt exceeds
	// this quantile of completed-unit latency (e.g. 0.95). It engages
	// after MinSamples observations; before that, Multiple (if set)
	// carries the trigger.
	Quantile float64
	// Multiple, when > 0, is the static trigger: a backup launches once
	// an attempt has been in flight longer than Multiple × the primary
	// node's expected execution time for the task. Straggling here means
	// queueing or staging delay the dispatcher could not foresee.
	Multiple float64
	// MinSamples is how many latency observations the Quantile trigger
	// needs before it engages (default 20).
	MinSamples int
}

// enabled reports whether any speculation trigger is configured.
func (s SpeculateOptions) enabled() bool { return s.Quantile > 0 || s.Multiple > 0 }

func (s SpeculateOptions) minSamples() int {
	if s.MinSamples <= 0 {
		return 20
	}
	return s.MinSamples
}

// ReliableStats extends Stats with failure accounting.
type ReliableStats struct {
	*Stats
	// Retries counts re-dispatches (loss or no live candidate).
	Retries int64
	// Lost counts jobs abandoned after exhausting retries.
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
	// Shed counts stream submissions rejected by Admission at submit
	// time (the sum of ShedByClass). Shed jobs were refused before any
	// work started, so like Suppressed they appear in neither Completed
	// nor Lost — they are the simulator's fail-fast rejections.
	Shed int64
	// ShedByClass breaks Shed down by priority class
	// (index classOf(priority): 0 low, 1 normal, 2 high).
	ShedByClass [numPriorityClasses]int64
}

// SuccessRate returns completed/(completed+lost).
func (r *ReliableStats) SuccessRate() float64 {
	total := r.Completed + r.Lost
	if total == 0 {
		return 0
	}
	return float64(r.Completed) / float64(total)
}

// RunStreamReliable executes jobs under pol on a continuum with failing
// nodes: placement only considers currently-up candidates, and work whose
// host fails mid-flight (epoch change between dispatch and completion) is
// lost and re-dispatched up to MaxRetries times. Latency is measured
// submit→reply including retries. RunStreamReliable owns the kernel.
//
// It is the same engine as RunStream with the fault hook engaged: inputs
// stage through the fabric when one is enabled, and task spans are
// recorded exactly as in base runs (plus failure instants, and task
// spans carrying Err, for lost attempts).
func (c *Continuum) RunStreamReliable(pol placement.Policy, jobs []StreamJob, candidates []*node.Node, opts ReliableOptions) *ReliableStats {
	return c.runStream(pol, jobs, candidates, opts)
}
