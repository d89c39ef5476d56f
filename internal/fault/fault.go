// Package fault injects fail-stop node failures into a simulation: each
// attached target alternates exponentially distributed up and down
// periods (the classic MTBF/MTTR model). The continuum's edge is flaky by
// nature — battery sensors die, gateways reboot, links flap — and any
// placement story that ignores that is incomplete; this package powers
// the F7 reliability experiment.
//
// Failure semantics are fail-stop with work loss: the injector flips
// availability and bumps an epoch counter; executors (see
// core.RunStreamReliable) treat work whose host changed epoch mid-flight
// as lost and retry elsewhere.
package fault

import (
	"fmt"

	"continuum/internal/sim"
	"continuum/internal/workload"
)

// Spec parameterizes a target's failure process.
type Spec struct {
	// MeanUp is the mean time between failures (seconds of uptime).
	MeanUp float64
	// MeanDown is the mean time to repair (seconds of downtime).
	MeanDown float64
}

// Validate reports the first problem with the spec.
func (s Spec) Validate() error {
	if s.MeanUp <= 0 || s.MeanDown <= 0 {
		return fmt.Errorf("fault: MeanUp and MeanDown must be positive (got %v, %v)", s.MeanUp, s.MeanDown)
	}
	return nil
}

// Target is one failure domain (typically a node).
type Target struct {
	Name string

	up    bool
	epoch uint64

	// OnFail and OnRepair, when set, run at each transition (inside the
	// simulation event).
	OnFail   func()
	OnRepair func()
}

// Up reports current availability.
func (t *Target) Up() bool { return t.up }

// Epoch returns the failure epoch: it increments on every failure, so an
// executor can detect "my host failed while I ran" by comparing epochs.
func (t *Target) Epoch() uint64 { return t.epoch }

// NewTarget returns a detached, initially-up target for scripted fault
// injection: scenario event scripts flip it with Fail and Repair at
// exact virtual times instead of attaching an MTBF/MTTR process via an
// Injector. Epoch bookkeeping works identically either way.
func NewTarget(name string) *Target {
	return &Target{Name: name, up: true}
}

// Fail forces the target down now (idempotent while down): the failure
// epoch advances, so in-flight work on it is treated as lost.
func (t *Target) Fail() { t.fail() }

// Repair forces the target up now (idempotent while up).
func (t *Target) Repair() { t.repair() }

func (t *Target) fail() {
	if !t.up {
		return
	}
	t.up = false
	t.epoch++
	if t.OnFail != nil {
		t.OnFail()
	}
}

func (t *Target) repair() {
	if t.up {
		return
	}
	t.up = true
	if t.OnRepair != nil {
		t.OnRepair()
	}
}

// Injector drives failure processes on a kernel, up to a horizon.
//
// The horizon matters: an unbounded fail/repair cycle would keep the
// event queue nonempty forever and Kernel.Run would never return. Events
// beyond the horizon are simply not scheduled; targets keep their final
// state.
type Injector struct {
	k       *sim.Kernel
	rng     *workload.RNG
	horizon float64
}

// NewInjector creates an injector using rng for all failure draws.
// Failure/repair events are only scheduled at times <= horizon.
func NewInjector(k *sim.Kernel, rng *workload.RNG, horizon float64) *Injector {
	if horizon <= 0 {
		panic(fmt.Sprintf("fault: horizon %v <= 0", horizon))
	}
	return &Injector{k: k, rng: rng, horizon: horizon}
}

// Attach creates a target and starts its fail/repair cycle. The target
// starts up; the first failure arrives after an exponential draw.
func (i *Injector) Attach(name string, spec Spec) *Target {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	t := NewTarget(name)
	Cycle(i.k, t, spec, i.k.Now(), i.horizon, i.rng)
	return t
}

// Cycle drives t's fail/repair machine on k from virtual time from:
// exponentially distributed up phases (mean spec.MeanUp) alternate with
// down phases (mean spec.MeanDown), each drawn from rng when the
// previous flip fires, the first failure drawn now. A flip is scheduled
// only if it falls at or before bound; past it t keeps its final state.
// Injector.Attach and the scenario's cycling chaos both run on it, so one
// seed gives one failure history either way.
func Cycle(k *sim.Kernel, t *Target, spec Spec, from, bound float64, rng *workload.RNG) {
	var fail, repair func(now float64)
	at := func(when float64, fn func()) {
		if when <= bound {
			k.At(when, fn)
		}
	}
	fail = func(now float64) {
		when := now + rng.Exp(1/spec.MeanUp)
		at(when, func() {
			t.fail()
			repair(when)
		})
	}
	repair = func(now float64) {
		when := now + rng.Exp(1/spec.MeanDown)
		at(when, func() {
			t.repair()
			fail(when)
		})
	}
	fail(from)
}
