// Package workload provides deterministic random workload generation:
// a seedable PRNG independent of math/rand version drift, standard
// distributions (exponential, lognormal, Pareto, Zipf), and arrival
// processes (Poisson, MMPP, deterministic).
//
// Determinism matters here: every experiment in the repository is
// reproducible from a seed, and sub-streams can be split off so that adding
// one more random draw in one component does not perturb another.
package workload

import "math"

// RNG is a splitmix64-based pseudo-random generator. It is deliberately
// self-contained (not math/rand) so generated workloads are stable across
// Go releases. The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns an independent sub-stream generator derived from the
// current state. The parent advances, so successive Splits differ.
func (r *RNG) Split() *RNG {
	// Mix the parent's output with a distinct odd constant so child streams
	// do not overlap the parent sequence.
	return &RNG{state: r.Uint64()*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("workload: Exp with rate <= 0")
	}
	// 1-Float64() is in (0,1]; avoids log(0).
	return -math.Log(1-r.Float64()) / rate
}

// Norm returns a normal variate with the given mean and standard deviation
// (Box-Muller).
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := 1 - r.Float64() // (0,1]
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Lognormal returns exp(N(mu, sigma)). Note mu/sigma parameterize the
// underlying normal, not the lognormal's own mean.
func (r *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Pareto returns a Pareto variate with minimum xm and shape alpha.
// Heavy-tailed for alpha <= 2 (infinite variance), the classic model for
// file and flow sizes.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("workload: Pareto with nonpositive parameter")
	}
	u := 1 - r.Float64() // (0,1]
	return xm / math.Pow(u, 1/alpha)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf generates ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, the standard popularity-skew model for dataset access.
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf builds a Zipf sampler over n items with exponent s >= 0
// (s = 0 is uniform). It precomputes the CDF in O(n).
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf with n <= 0")
	}
	if s < 0 {
		panic("workload: Zipf with s < 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// Next returns the next sampled rank in [0, N).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
