package workload

// ArrivalProcess produces successive inter-arrival gaps in seconds. Next
// never returns a negative value.
type ArrivalProcess interface {
	// Next returns the gap to the next arrival.
	Next() float64
	// Rate returns the long-run mean arrival rate in events/second.
	Rate() float64
}

// Poisson is a memoryless arrival process with exponential gaps.
type Poisson struct {
	rng  *RNG
	rate float64
}

// NewPoisson returns a Poisson process with the given mean rate (events/s).
func NewPoisson(rng *RNG, rate float64) *Poisson {
	if rate <= 0 {
		panic("workload: Poisson rate <= 0")
	}
	return &Poisson{rng: rng, rate: rate}
}

// Next returns an exponential inter-arrival gap.
func (p *Poisson) Next() float64 { return p.rng.Exp(p.rate) }

// Rate returns the configured rate.
func (p *Poisson) Rate() float64 { return p.rate }

// LognormalSize draws lognormal sizes, the common model for task runtimes.
type LognormalSize struct {
	rng       *RNG
	mu, sigma float64
}

// NewLognormalSize builds a lognormal size source with underlying-normal
// parameters mu and sigma.
func NewLognormalSize(rng *RNG, mu, sigma float64) *LognormalSize {
	return &LognormalSize{rng: rng, mu: mu, sigma: sigma}
}

// Next draws one size.
func (l *LognormalSize) Next() float64 { return l.rng.Lognormal(l.mu, l.sigma) }

// ParetoSize draws heavy-tailed Pareto sizes (file/flow sizes).
type ParetoSize struct {
	rng       *RNG
	xm, alpha float64
}

// NewParetoSize builds a Pareto size source with minimum xm and shape alpha.
func NewParetoSize(rng *RNG, xm, alpha float64) *ParetoSize {
	return &ParetoSize{rng: rng, xm: xm, alpha: alpha}
}

// Next draws one size.
func (p *ParetoSize) Next() float64 { return p.rng.Pareto(p.xm, p.alpha) }

// UniformSize draws uniform sizes in [lo, hi).
type UniformSize struct {
	rng    *RNG
	lo, hi float64
}

// NewUniformSize builds a uniform size source on [lo, hi).
func NewUniformSize(rng *RNG, lo, hi float64) *UniformSize {
	if hi < lo {
		panic("workload: UniformSize hi < lo")
	}
	return &UniformSize{rng: rng, lo: lo, hi: hi}
}

// Next draws one size.
func (u *UniformSize) Next() float64 { return u.rng.Range(u.lo, u.hi) }
