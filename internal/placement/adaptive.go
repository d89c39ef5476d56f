package placement

import (
	"math"

	"continuum/internal/node"
)

// FeedbackPolicy is a Policy that learns from observed outcomes. The
// stream runners call Observe with the measured end-to-end latency after
// each completion, closing the loop.
type FeedbackPolicy interface {
	Policy
	// Observe records a measured latency for a job that ran on nodeID.
	Observe(nodeID int, latency float64)
}

// Adaptive is a UCB1 bandit over candidate nodes: it places by *measured*
// latency rather than the analytic cost model, so it keeps working when
// the model is misinformed — unmodeled co-tenants, mis-advertised clock
// speeds, or hidden congestion. The price is exploration traffic on
// inferior nodes.
//
// Arms are node IDs; the objective is minimized mean latency with the
// standard sqrt(2 ln N / n) confidence radius subtracted (optimism for a
// minimization problem).
type Adaptive struct {
	// Explore scales the confidence radius. Zero means pure greedy
	// exploitation after one sample per arm; the UCB1 constant is
	// sqrt(2) ≈ 1.41. Because radii are in seconds, Explore also sets
	// the latency scale the learner considers "worth exploring".
	Explore float64

	sum   map[int]float64
	count map[int]int64
	total int64
}

// NewAdaptive returns a UCB1 policy with the given exploration scale.
func NewAdaptive(explore float64) *Adaptive {
	return &Adaptive{
		Explore: explore,
		sum:     make(map[int]float64),
		count:   make(map[int]int64),
	}
}

// Name implements Policy.
func (a *Adaptive) Name() string { return "adaptive-ucb" }

// Observe implements FeedbackPolicy.
func (a *Adaptive) Observe(nodeID int, latency float64) {
	a.sum[nodeID] += latency
	a.count[nodeID]++
	a.total++
}

// Select implements Policy: unsampled arms first (in node order for
// determinism), then lowest lower-confidence bound.
func (a *Adaptive) Select(env *Env, req Request) *node.Node {
	cands := env.Candidates()
	for _, n := range cands {
		if a.count[n.ID] == 0 {
			return n
		}
	}
	return argmin(cands, func(n *node.Node) float64 {
		mean := a.sum[n.ID] / float64(a.count[n.ID])
		radius := a.Explore * math.Sqrt(2*math.Log(float64(a.total))/float64(a.count[n.ID]))
		return mean - radius
	})
}
