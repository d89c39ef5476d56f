// Package fault injects fail-stop failures: a target alternates
// exponentially distributed up and down Phases (the classic MTBF/MTTR
// model) and bumps an epoch counter as it fails, and executors (see
// core.Options) treat work whose host changed epoch mid-flight as lost
// and retry elsewhere. Chaos adds per-request faults on the same
// Phases, for the simulator and the live wire server alike. The
// continuum's edge is flaky by nature — sensors die, gateways reboot,
// links flap — and this package powers the F7 reliability experiment.
package fault

import (
	"fmt"
	"math"

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
// exact virtual times instead of cycling through MTBF/MTTR phases with
// Attach. Epoch bookkeeping works identically either way.
func NewTarget(name string) *Target {
	return &Target{Name: name, up: true}
}

// Fail forces the target down now (idempotent while down): the failure
// epoch advances, so in-flight work on it is treated as lost.
func (t *Target) Fail() {
	if !t.up {
		return
	}
	t.up = false
	t.epoch++
	if t.OnFail != nil {
		t.OnFail()
	}
}

// Repair forces the target up now (idempotent while up).
func (t *Target) Repair() {
	if t.up {
		return
	}
	t.up = true
	if t.OnRepair != nil {
		t.OnRepair()
	}
}

// Attach creates a target that starts up and cycles through spec's
// phases on k (see Cycle), drawn from rng, until horizon: flips past it
// are not scheduled, since an unbounded cycle would keep the kernel's
// queue nonempty forever. Targets attached with one rng share its stream.
func Attach(k *sim.Kernel, name string, spec Spec, horizon float64, rng *workload.RNG) *Target {
	t := NewTarget(name)
	Cycle(k, t, NewPhases(spec, k.Now(), horizon, rng))
	return t
}

// Phases is a Spec's up/down recurrence from a start time: an up phase
// of exponential length (mean MeanUp), then a down phase (mean
// MeanDown), and so on, each length drawn when the phase before it ends.
// A phase that would end past the bound never ends. Cycle walks Phases on
// a kernel and a Chaos as requests arrive: one stream, one history.
type Phases struct {
	spec  Spec
	rng   *workload.RNG
	bound float64
	up    bool
	end   float64 // when the current phase ends; +Inf once it is the last
}

// NewPhases starts spec's recurrence at from, drawing the first up
// phase from rng now; it panics on an invalid spec.
func NewPhases(spec Spec, from, bound float64, rng *workload.RNG) *Phases {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	p := &Phases{spec: spec, rng: rng, bound: bound, end: from}
	p.flip()
	return p
}

// Up reports whether the current phase is an up phase.
func (p *Phases) Up() bool { return p.up }

// End returns when the current phase ends (+Inf for the last one).
func (p *Phases) End() float64 { return p.end }

// flip enters the next phase at End and draws its length.
func (p *Phases) flip() {
	p.up = !p.up
	mean := p.spec.MeanDown
	if p.up {
		mean = p.spec.MeanUp
	}
	if p.end += p.rng.Exp(1 / mean); p.end > p.bound {
		p.end = math.Inf(1)
	}
}

// Cycle drives t along ph on k: t fails as each up phase ends and is
// repaired as each down phase ends, each flip drawing the next phase as
// it fires; after the last flip t keeps its state.
func Cycle(k *sim.Kernel, t *Target, ph *Phases) {
	var flip func()
	next := func() {
		if end := ph.End(); !math.IsInf(end, 1) {
			k.At(end, flip)
		}
	}
	flip = func() {
		if ph.Up() {
			t.Fail()
		} else {
			t.Repair()
		}
		ph.flip()
		next()
	}
	next()
}
