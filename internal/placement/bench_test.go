package placement

import (
	"fmt"
	"testing"

	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/sim"
	"continuum/internal/task"
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

// selected keeps the compiler from discarding the measured calls.
var selected *node.Node

// BenchmarkGreedyLatencySelect is one greedy-latency decision over a
// 1000-node fleet from a rotating set of 64 warm origins: 1000 latency
// estimates, each a path-metric lookup.
func BenchmarkGreedyLatencySelect(b *testing.B) {
	env := stressEnv(1000)
	tk := &task.Task{ScalarWork: 5e9, OutputBytes: 1e4, Inputs: []task.DataRef{{Name: "in", Bytes: 2e5}}}
	origins := env.Nodes[len(env.Nodes)-64:]
	for _, o := range origins {
		GreedyLatency{}.Select(env, Request{Task: tk, Origin: o.ID})
	}
	b.Run("1000nodes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			selected = GreedyLatency{}.Select(env, Request{Task: tk, Origin: origins[i%len(origins)].ID})
		}
	})
}
