package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// This file is the live-path counterpart of the simulated Injector: the
// same MTBF/MTTR failure model (Spec), driven by the wall clock instead
// of a simulation kernel, plus per-request fault draws (dropped
// connections, injected latency, injected errors). The wire server
// consults a Chaos before dispatching each request, which turns a real
// continuumd into its own fault injector — the substrate for the
// end-to-end "kill an endpoint mid-run, no request lost" test.

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

// ChaosSpec parameterizes live fault injection. The embedded Spec, when
// nonzero, cycles the target through exponentially distributed up/down
// phases (wall-clock seconds): every request during a down phase is
// dropped, modeling an endpoint crash/repair cycle. The probabilities
// apply per request while up.
type ChaosSpec struct {
	// Spec cycles availability (MeanUp/MeanDown in wall-clock seconds).
	// The zero Spec means always up.
	Spec
	// DropProb is the per-request probability of severing the connection.
	DropProb float64
	// ErrProb is the per-request probability of an injected error
	// response.
	ErrProb float64
	// DelayProb is the per-request probability of a latency spike.
	DelayProb float64
	// DelayMean is the mean of the exponential injected latency.
	DelayMean time.Duration
	// Seed makes the injection sequence reproducible (0 seeds from the
	// clock).
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

// cycling reports whether up/down phases are enabled.
func (s ChaosSpec) cycling() bool { return s.MeanUp > 0 && s.MeanDown > 0 }

// Chaos draws per-request fault injections against the wall clock. It is
// safe for concurrent use.
type Chaos struct {
	spec ChaosSpec
	now  func() time.Time // injectable clock for tests

	mu       sync.Mutex
	rng      *rand.Rand
	up       bool
	phaseEnd time.Time // when the current up/down phase expires
}

// NewChaos builds an injector from spec; it panics on an invalid spec
// (configuration error, caught at startup like the Injector's).
func NewChaos(spec ChaosSpec) *Chaos {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Chaos{
		spec: spec,
		now:  time.Now,
		rng:  rand.New(rand.NewSource(seed)),
		up:   true,
	}
}

// exp draws an exponential duration with the given mean. Callers hold
// c.mu.
func (c *Chaos) exp(mean float64) time.Duration {
	d := c.rng.ExpFloat64() * mean
	if d > math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(d * float64(time.Second))
}

// advance rolls the up/down phase machine forward to now. Callers hold
// c.mu.
func (c *Chaos) advance(now time.Time) {
	if !c.spec.cycling() {
		return
	}
	if c.phaseEnd.IsZero() {
		c.phaseEnd = now.Add(c.exp(c.spec.MeanUp))
	}
	for !now.Before(c.phaseEnd) {
		if c.up {
			c.up = false
			c.phaseEnd = c.phaseEnd.Add(c.exp(c.spec.MeanDown))
		} else {
			c.up = true
			c.phaseEnd = c.phaseEnd.Add(c.exp(c.spec.MeanUp))
		}
	}
}

// Next draws the fate of one request: an action plus a latency spike to
// impose before it (0 when no spike was drawn). During a down phase every
// request is dropped.
func (c *Chaos) Next() (ChaosAction, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(c.now())
	if !c.up {
		return ChaosDrop, 0
	}
	var delay time.Duration
	if c.spec.DelayProb > 0 && c.rng.Float64() < c.spec.DelayProb {
		delay = c.exp(c.spec.DelayMean.Seconds())
	}
	switch {
	case c.spec.DropProb > 0 && c.rng.Float64() < c.spec.DropProb:
		return ChaosDrop, delay
	case c.spec.ErrProb > 0 && c.rng.Float64() < c.spec.ErrProb:
		return ChaosError, delay
	default:
		return ChaosNone, delay
	}
}
