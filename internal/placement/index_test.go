package placement

import (
	"fmt"
	"testing"

	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/sim"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// fullScanGreedyLatency is the reference GreedyLatency: every eligible
// candidate scored, lowest (score, ID) wins.
func fullScanGreedyLatency(env *Env, req Request) *node.Node {
	noFabric := *env
	noFabric.Fabric = nil
	var best *node.Node
	var bestScore float64
	for _, n := range env.Nodes {
		if env.Eligible != nil && !env.Eligible(n) {
			continue
		}
		s := EstimateLatency(&noFabric, req, n)
		if best == nil || s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}

func nameOf(n *node.Node) string {
	if n == nil {
		return "nil"
	}
	return n.Name
}

// pick returns one element of xs.
func pick[T any](rng *workload.RNG, xs ...T) T { return xs[rng.Intn(len(xs))] }

// randomContinuum builds a small continuum whose every latency, execution
// time and queue wait is a dyadic rational, so equal scores — within a
// spec part and across parts — are common and exact. Some nodes have no
// links at all (unreachable, +Inf latency), and every node carries
// random core occupancy so the wait term is non-zero.
func randomContinuum(rng *workload.RNG) (*Env, []*netsim.Link) {
	k := sim.NewKernel()
	net := netsim.New(k, 0)
	env := &Env{Net: net}
	n := 2 + rng.Intn(30)
	for i := 0; i < n; i++ {
		spec := node.Spec{
			Name:  fmt.Sprintf("n%d", i),
			Cores: pick(rng, 1, 2, 4), CoreFlops: pick(rng, 1e9, 2e9, 4e9),
		}
		if rng.Intn(3) == 0 {
			spec.Accel = node.Accelerator{Kind: node.GPU, Count: 1, Flops: pick(rng, 8e9, 16e9)}
		}
		nd := node.New(k, net.AddNode(), spec)
		for busy := rng.Intn(spec.Cores + 3); busy > 0; busy-- {
			nd.Cores.Acquire(1, func() {})
		}
		env.Nodes = append(env.Nodes, nd)
	}
	lat := func() float64 { return pick(rng, 0, 0.125, 0.25, 0.5, 1) }
	var links []*netsim.Link
	isolated := rng.Intn(n) // unlinked: unreachable from and to everything
	for i := 1; i < n; i++ {
		if i == isolated {
			continue
		}
		j := rng.Intn(i)
		if j == isolated {
			j = (j + 1) % i
			if j == isolated {
				continue
			}
		}
		ab, ba := net.AddDuplexLink(env.Nodes[i].ID, env.Nodes[j].ID, lat(), pick(rng, 1e6, 2e6))
		links = append(links, ab, ba)
	}
	for extra := rng.Intn(n); extra > 0; extra-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || a == isolated || b == isolated {
			continue
		}
		links = append(links, net.AddLink(env.Nodes[a].ID, env.Nodes[b].ID, lat(), pick(rng, 1e6, 2e6)))
	}
	return env, links
}

// TestGreedyLatencyPrunedMatchesFullScan is the exactness property of the
// bounded scan: on 200 random continua with equal-latency ties,
// unreachable nodes, busy cores, random eligibility masks (all-ineligible
// included) and link retunes between decisions, GreedyLatency picks the
// node a full scan picks, every time.
func TestGreedyLatencyPrunedMatchesFullScan(t *testing.T) {
	rng := workload.NewRNG(2019)
	var decisions, nils int
	for c := 0; c < 200; c++ {
		env, links := randomContinuum(rng)
		for d := 0; d < 20; d++ {
			if len(links) > 0 && rng.Intn(3) == 0 {
				l := links[rng.Intn(len(links))]
				env.Net.SetLinkParams(l, pick(rng, 0, 0.125, 0.25, 0.5, 1, 2), pick(rng, 1e6, 2e6))
			}
			p := pick(rng, 0, 0.5, 0.9, 1)
			mask := make(map[int]bool)
			for _, n := range env.Nodes {
				mask[n.ID] = rng.Float64() < p
			}
			view := env
			switch rng.Intn(3) {
			case 1:
				env.Eligible = func(n *node.Node) bool { return mask[n.ID] }
			case 2:
				env.Eligible = nil
				view = env.Restrict(func(n *node.Node) bool { return mask[n.ID] })
			default:
				env.Eligible = nil
			}
			tk := &task.Task{ScalarWork: pick(rng, 0, 1e9, 2e9), TensorWork: pick(rng, 0, 8e9)}
			if tk.TensorWork > 0 {
				tk.Accel = pick(rng, node.GPU, node.TPU)
			}
			if rng.Intn(2) == 0 {
				tk.Inputs = []task.DataRef{{Name: "in", Bytes: pick(rng, 1e6, 2e6)}}
			}
			req := Request{Task: tk, Origin: env.Nodes[rng.Intn(len(env.Nodes))].ID}
			got, want := GreedyLatency{}.Select(view, req), fullScanGreedyLatency(view, req)
			if got != want {
				t.Fatalf("continuum %d decision %d: bounded scan chose %s, full scan %s", c, d, nameOf(got), nameOf(want))
			}
			decisions++
			if want == nil {
				nils++
			}
		}
	}
	if nils == 0 || nils == decisions {
		t.Fatalf("%d of %d decisions had nothing eligible: the masks do not cover both cases", nils, decisions)
	}
}
