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

// stressEnv mirrors scenario.GenerateStress's shape: one cloud, n/64 fog
// sites on 20 ms WAN links, and gateways on 2 ms metro links spread over
// the fogs.
func stressEnv(n int) *Env {
	k := sim.NewKernel()
	net := netsim.New(k, 0)
	env := &Env{Net: net}
	add := func(spec node.Spec) *node.Node {
		nd := node.New(k, net.AddNode(), spec)
		env.Nodes = append(env.Nodes, nd)
		return nd
	}
	cloud := add(node.Spec{Name: "cloud", Class: node.Cloud, Cores: 96, CoreFlops: 3.2e9, MemBytes: 384 << 30})
	fogs := max(n/64, 2)
	for f := 0; f < fogs; f++ {
		fog := add(node.Spec{Name: fmt.Sprintf("fog%d", f), Class: node.Fog, Cores: 16, CoreFlops: 3e9, MemBytes: 64 << 30})
		net.AddDuplexLink(fog.ID, cloud.ID, 0.020, 1.25e9)
	}
	for g := 0; g < n-1-fogs; g++ {
		gw := add(node.Spec{Name: fmt.Sprintf("gw%04d", g), Class: node.Gateway, Cores: 4, CoreFlops: 2.5e9, MemBytes: 4 << 30})
		net.AddDuplexLink(gw.ID, env.Nodes[1+g%fogs].ID, 0.002, 1.25e8)
	}
	return env
}

// backlogged gives the cloud and every fog of a stress-shaped fleet one
// queued task per core on top of a full set of running ones, so each of
// their scores exceeds any gateway's latency plus their exec time: a
// nearest-first scan of their parts reaches the end of each list with the
// best score still above every remaining bound.
func backlogged(env *Env) *Env {
	for _, n := range env.Nodes {
		if n.Class == node.Cloud || n.Class == node.Fog {
			for c := 0; c < 2*n.Spec.Cores; c++ {
				n.Cores.Acquire(1, func() {})
			}
		}
	}
	return env
}

// busySiblings gives the lowest-ID half of every fog's gateways in a
// stress-shaped fleet one running task each, and returns 64 of them.
// From a busy gateway behind a backlogged fog, the best choice is an idle
// sibling, and the nearest siblings are busy below the idle ones in ID.
// stressEnv links gateway g to fog g mod fogs.
func busySiblings(env *Env) []*node.Node {
	var fogs, gws []*node.Node
	for _, n := range env.Nodes {
		switch n.Class {
		case node.Fog:
			fogs = append(fogs, n)
		case node.Gateway:
			gws = append(gws, n)
		}
	}
	for g, gw := range gws {
		f := g % len(fogs)
		if perFog := (len(gws) - f + len(fogs) - 1) / len(fogs); g/len(fogs) < perFog/2 {
			gw.Cores.Acquire(1, func() {})
		}
	}
	return gws[:64]
}

// selected keeps the compiler from discarding the measured calls.
var selected *node.Node

// BenchmarkGreedyLatencySelect is one greedy-latency decision over a
// stress-shaped fleet from a rotating set of 64 warm origins (their trees
// and candidate orders already built). The 10pct-ineligible case marks a
// seeded tenth of the fleet ineligible through Env.Eligible, as faults
// and cordons do in a run. The backlogged case loads the cloud and the
// fogs as a run's heavy phases do, so their parts run out of listed
// members while their bounds are still below the best score. The
// busy-siblings case adds busySiblings to the backlogged one and decides
// from busy gateways, so an idle sibling wins among ties of ID-ordered
// busy and idle ones, as in a run's gateway-heavy phases.
func BenchmarkGreedyLatencySelect(b *testing.B) {
	tk := &task.Task{ScalarWork: 5e9, OutputBytes: 1e4, Inputs: []task.DataRef{{Name: "in", Bytes: 2e5}}}
	bench := func(env *Env, origins ...*node.Node) func(*testing.B) {
		if origins == nil {
			origins = env.Nodes[len(env.Nodes)-64:]
		}
		for _, o := range origins {
			GreedyLatency{}.Select(env, Request{Task: tk, Origin: o.ID})
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				selected = GreedyLatency{}.Select(env, Request{Task: tk, Origin: origins[i%len(origins)].ID})
			}
		}
	}
	b.Run("1000nodes", bench(stressEnv(1000)))
	ineligible := stressEnv(1000)
	rng := workload.NewRNG(1)
	down := make([]bool, len(ineligible.Nodes))
	for i := range down {
		down[i] = rng.Float64() < 0.1
	}
	ineligible.Eligible = func(n *node.Node) bool { return !down[n.ID] }
	b.Run("1000nodes-10pct-ineligible", bench(ineligible))
	b.Run("1000nodes-backlogged", bench(backlogged(stressEnv(1000))))
	siblings := backlogged(stressEnv(1000))
	b.Run("1000nodes-busy-siblings", bench(siblings, busySiblings(siblings)...))
	b.Run("10000nodes", bench(stressEnv(10000)))
}
