package fault

import (
	"fmt"
	"math"
	"sync"
	"time"

	"continuum/internal/workload"
)

// This file is per-request fault injection for both backends: the
// simulator asks a Chaos in virtual time, the wire server on the wall
// clock before each dispatch (so a continuumd injects its own faults).

// ChaosAction is the injected fate of one request.
type ChaosAction int

// Chaos actions, in increasing severity.
const (
	// ChaosNone serves the request normally.
	ChaosNone ChaosAction = iota
	// ChaosError answers with an injected (retryable) error response.
	ChaosError
	// ChaosDrop severs the connection without a response — the client
	// sees a mid-request transport failure.
	ChaosDrop
)

// String returns the action name.
func (a ChaosAction) String() string {
	switch a {
	case ChaosNone:
		return "none"
	case ChaosError:
		return "error"
	case ChaosDrop:
		return "drop"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// ChaosSpec parameterizes fault injection. The embedded Spec, when
// nonzero, cycles the target through up/down phases, and every request
// in a down phase is dropped (an endpoint crash/repair cycle). While up,
// each probability is that of its outcome; DropProb+ErrProb is at most 1.
type ChaosSpec struct {
	// Spec cycles availability (MeanUp/MeanDown in seconds). The zero
	// Spec means always up.
	Spec
	// DropProb is the per-request probability of severing the connection.
	DropProb float64
	// ErrProb is the per-request probability of an injected error reply.
	ErrProb float64
	// DelayProb is the per-request probability of a latency spike.
	DelayProb float64
	// DelayMean is the mean of the exponential injected latency.
	DelayMean time.Duration
	// Seed makes NewChaos reproducible (0 seeds from the clock).
	Seed int64
}

// Validate reports the first problem with the spec.
func (s ChaosSpec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", s.DropProb}, {"err", s.ErrProb}, {"delay", s.DelayProb}} {
		if !(p.v >= 0 && p.v <= 1) { // written so NaN fails too
			return fmt.Errorf("fault: chaos %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if !(s.DropProb+s.ErrProb <= 1) {
		return fmt.Errorf("fault: chaos drop+err probability %v exceeds 1", s.DropProb+s.ErrProb)
	}
	if s.DelayMean < 0 {
		return fmt.Errorf("fault: chaos delay mean %v < 0", s.DelayMean)
	}
	if (s.MeanUp == 0) != (s.MeanDown == 0) {
		return fmt.Errorf("fault: chaos up/down must both be set or both zero (got %v, %v)", s.MeanUp, s.MeanDown)
	}
	if s.MeanUp < 0 || s.MeanDown < 0 {
		return fmt.Errorf("fault: chaos up/down must be positive (got %v, %v)", s.MeanUp, s.MeanDown)
	}
	return nil
}

// Chaos draws per-request fault injections. It is safe for concurrent
// use.
type Chaos struct {
	spec  ChaosSpec
	epoch time.Time // the wall time at second 0 of the injector's clock
	scale float64   // wall seconds per second of the injector's clock

	mu     sync.Mutex
	draws  *workload.RNG
	phases *Phases // nil: always up
}

// NewChaos builds a wall-clock injector from spec, its phases starting
// now, its request and phase streams split in that order from
// spec.Seed. It panics on an invalid spec (a configuration error).
func NewChaos(spec ChaosSpec) *Chaos {
	seed := spec.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := workload.NewRNG(uint64(seed))
	draws := rng.Split()
	var phases *Phases
	if spec.MeanUp > 0 {
		phases = NewPhases(spec.Spec, 0, math.Inf(1), rng.Split())
	}
	return NewChaosOn(spec, draws, phases, time.Now(), 1)
}

// NewChaosOn builds an injector that draws each request's fate from
// draws and walks phases (nil: always up, as for a simulator that flips
// the target with Cycle). NextAt reads wall time at as (at − epoch)/scale
// seconds on its clock, scale > 0, and stretches the delay by scale. It
// panics on an invalid spec.
func NewChaosOn(spec ChaosSpec, draws *workload.RNG, phases *Phases, epoch time.Time, scale float64) *Chaos {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &Chaos{spec: spec, epoch: epoch, scale: scale, draws: draws, phases: phases}
}

// Draw draws the fate of a request arriving at now, in seconds on the
// injector's clock. During a down phase the request is dropped and
// nothing is drawn. Otherwise a delay is drawn first, only when DelayProb
// and DelayMean are both positive, then one uniform u when DropProb or
// ErrProb is: drop if u < DropProb, error if u < DropProb+ErrProb. The
// delay is in seconds (0 when none was drawn).
func (c *Chaos) Draw(now float64) (ChaosAction, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ph := c.phases; ph != nil {
		for now >= ph.End() {
			ph.flip()
		}
		if !ph.Up() {
			return ChaosDrop, 0
		}
	}
	var delay float64
	if p := c.spec.DelayProb; p > 0 && c.spec.DelayMean > 0 && c.draws.Float64() < p {
		delay = c.draws.Exp(1 / c.spec.DelayMean.Seconds())
	}
	if p := c.spec.DropProb + c.spec.ErrProb; p > 0 {
		switch u := c.draws.Float64(); {
		case u < c.spec.DropProb:
			return ChaosDrop, delay
		case u < p:
			return ChaosError, delay
		}
	}
	return ChaosNone, delay
}

// NextAt draws the fate of a request that arrived at wall time at, and
// the latency spike to impose before it (see NewChaosOn).
func (c *Chaos) NextAt(at time.Time) (ChaosAction, time.Duration) {
	act, delay := c.Draw(at.Sub(c.epoch).Seconds() / c.scale)
	if wall := delay * c.scale * float64(time.Second); wall < math.MaxInt64 {
		return act, time.Duration(wall)
	}
	return act, math.MaxInt64
}
