package core

import (
	"continuum/internal/fault"
	"continuum/internal/node"
)

// Options configures failure-aware execution. It is the engine's fault
// hook (see engine.go): the zero value makes every availability and
// epoch check a no-op, and without Faults a retry budget never fires, so
// such a run equals a run with zero Options exactly.
type Options struct {
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
	// the returned virtual seconds. A scenario's chaos events set it to
	// ask the node's fault.Chaos, the injector the live wire server
	// consults per request, so a chaos event draws the same on both
	// backends. Nil disturbs nothing.
	Disturb func(n *node.Node) (drop bool, delay float64)
	// DropSubmit, when set, is consulted at each stream job's submit
	// time; returning true silences the submission entirely (counted in
	// Suppressed, not Lost). It models an origin that is itself down —
	// a failed gateway generates no traffic — matching the live runner,
	// which pauses a failed node's request generator. Nil submits all.
	DropSubmit func(origin int) bool
	// Admission, when > 0, is the capacity of the live endpoint's gate
	// (faas.Gate, faas.AdmissionConfig{Enabled: true} defaults), which
	// stream jobs pass at submit time in kernel time. Over capacity a job
	// queues until a completion or a loss frees a slot; past its class's
	// share of the queue it sheds, lowest class first. 0 means no gate.
	Admission int
	// Cordoned, when set, is consulted wherever candidates are chosen:
	// a cordoned node receives no NEW work (placement, retries, and
	// speculative backups all skip it) but work already dispatched to it
	// finishes normally — the difference from a Faults downtime, which
	// loses in-flight attempts. It is the simulator half of the
	// scenario "cordon" event; the live half is faas.Endpoint.SetCordon.
	// Nil cordons nothing.
	Cordoned func(n *node.Node) bool
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
	// this quantile of completed-unit latency (e.g. 0.95), by the live
	// client's rule (retry.HedgeDelay). Until that rule engages, Multiple
	// (if set) carries the trigger.
	Quantile float64
	// Multiple, when > 0, is the static trigger: a backup launches once
	// an attempt has been in flight longer than Multiple × the primary
	// node's expected execution time for the task. Straggling here means
	// queueing or staging delay the dispatcher could not foresee.
	Multiple float64
}

// enabled reports whether any speculation trigger is configured.
func (s SpeculateOptions) enabled() bool { return s.Quantile > 0 || s.Multiple > 0 }
