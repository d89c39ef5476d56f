package netsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"continuum/internal/sim"
	"continuum/internal/workload"
)

func TestPropagationDelay(t *testing.T) {
	// 200,000 km of fiber: 1 second.
	if d := PropagationDelay(200000); math.Abs(d-1) > 1e-12 {
		t.Fatalf("PropagationDelay = %v, want 1", d)
	}
	// Chicago to Amsterdam ~6600 km: ~33 ms one way.
	if d := PropagationDelay(6600); d < 0.03 || d > 0.04 {
		t.Fatalf("transatlantic delay = %v, want ~33ms", d)
	}
}

func TestAddNodesAndLinks(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 2)
	if n.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", n.NumNodes())
	}
	id := n.AddNode()
	if id != 2 || n.NumNodes() != 3 {
		t.Fatalf("AddNode -> %d, NumNodes = %d", id, n.NumNodes())
	}
	n.AddDuplexLink(0, 1, 0.001, 1e9)
	if len(n.links) != 2 {
		t.Fatalf("links = %d, want 2", len(n.links))
	}
}

func TestBadTopologyPanics(t *testing.T) {
	k := sim.NewKernel()
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative nodes", func() { New(k, -1) }},
		{"link out of range", func() { New(k, 1).AddLink(0, 5, 0, 1) }},
		{"negative latency", func() { New(k, 2).AddLink(0, 1, -1, 1) }},
		{"zero capacity", func() { New(k, 2).AddLink(0, 1, 0, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestPathShortestByLatency(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 4)
	// 0 -> 1 -> 3 with total latency 2; 0 -> 2 -> 3 with total latency 10.
	n.AddLink(0, 1, 1, 1e9)
	n.AddLink(1, 3, 1, 1e9)
	n.AddLink(0, 2, 5, 1e9)
	n.AddLink(2, 3, 5, 1e9)
	path, err := n.Path(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0].To != 1 || path[1].To != 3 {
		t.Fatalf("path = %+v, want via node 1", path)
	}
	if lat := n.Latency(0, 3); math.Abs(lat-2) > 1e-12 {
		t.Fatalf("Latency = %v, want 2", lat)
	}
}

func TestPathSameNode(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 2)
	path, err := n.Path(1, 1)
	if err != nil || path != nil {
		t.Fatalf("same-node path = %v, %v", path, err)
	}
	if n.Latency(1, 1) != 0 {
		t.Fatal("same-node latency != 0")
	}
}

func TestPathUnreachable(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 3)
	n.AddLink(0, 1, 1, 1e9)
	if _, err := n.Path(0, 2); err == nil {
		t.Fatal("unreachable node returned nil error")
	}
	if !math.IsInf(n.Latency(0, 2), 1) {
		t.Fatal("unreachable latency != +Inf")
	}
	if bottleneck(n, 0, 2) != 0 {
		t.Fatal("unreachable bottleneck != 0")
	}
}

func TestRouteCacheInvalidation(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 3)
	n.AddLink(0, 1, 10, 1e9)
	n.AddLink(1, 2, 10, 1e9)
	if lat := n.Latency(0, 2); math.Abs(lat-20) > 1e-12 {
		t.Fatalf("Latency = %v, want 20", lat)
	}
	// Adding a faster direct link must invalidate the cached route.
	n.AddLink(0, 2, 1, 1e9)
	if lat := n.Latency(0, 2); math.Abs(lat-1) > 1e-12 {
		t.Fatalf("Latency after new link = %v, want 1", lat)
	}
}

func TestBottleneck(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 3)
	n.AddLink(0, 1, 1, 1e9)
	n.AddLink(1, 2, 1, 1e6)
	if bn := bottleneck(n, 0, 2); bn != 1e6 {
		t.Fatalf("Bottleneck = %v, want 1e6", bn)
	}
	if !math.IsInf(bottleneck(n, 1, 1), 1) {
		t.Fatal("same-node bottleneck != +Inf")
	}
}

func TestMessageDeliveryTime(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 2)
	n.AddLink(0, 1, 0.010, 1e6) // 10ms + 1MB/s
	var at float64 = -1
	n.Message(0, 1, 1e6, func() { at = k.Now() })
	k.Run()
	// 10ms propagation + 1s transmission
	if math.Abs(at-1.010) > 1e-9 {
		t.Fatalf("message delivered at %v, want 1.010", at)
	}
	if n.Messages != 1 {
		t.Fatalf("Messages = %d", n.Messages)
	}
}

func TestMessageSameNodeImmediate(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 1)
	var at float64 = -1
	n.Message(0, 0, 1e9, func() { at = k.Now() })
	k.Run()
	if at != 0 {
		t.Fatalf("same-node message at %v, want 0", at)
	}
}

func TestMessageTimeMatchesMessage(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, 3)
	n.AddLink(0, 1, 0.005, 1e7)
	n.AddLink(1, 2, 0.005, 1e6)
	want := n.MessageTime(0, 2, 5e5)
	var at float64 = -1
	n.Message(0, 2, 5e5, func() { at = k.Now() })
	k.Run()
	if math.Abs(at-want) > 1e-12 {
		t.Fatalf("Message at %v, MessageTime %v", at, want)
	}
	// Expected: 10ms prop + 5e5/1e6 = 0.51s
	if math.Abs(want-0.51) > 1e-9 {
		t.Fatalf("MessageTime = %v, want 0.51", want)
	}
}

func TestStarTopology(t *testing.T) {
	k := sim.NewKernel()
	n, hub, leaves := Star(k, StarSpec{Leaves: 5, LeafLatency: 0.001, LeafCapacity: 1e9})
	if len(leaves) != 5 || n.NumNodes() != 6 {
		t.Fatalf("star shape wrong: %d leaves, %d nodes", len(leaves), n.NumNodes())
	}
	// Leaf to leaf goes through the hub: 2ms.
	if lat := n.Latency(leaves[0], leaves[4]); math.Abs(lat-0.002) > 1e-12 {
		t.Fatalf("leaf-leaf latency = %v", lat)
	}
	if lat := n.Latency(hub, leaves[0]); math.Abs(lat-0.001) > 1e-12 {
		t.Fatalf("hub-leaf latency = %v", lat)
	}
}

// Property: latency satisfies the triangle inequality over shortest paths
// (routing optimality), on random connected graphs.
func TestPropertyShortestPathTriangle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		k := sim.NewKernel()
		const nn = 12
		n := New(k, nn)
		// Ring for connectivity plus random chords.
		for i := 0; i < nn; i++ {
			n.AddDuplexLink(i, (i+1)%nn, rng.Range(0.001, 0.02), 1e9)
		}
		for i := 0; i < 8; i++ {
			a, b := rng.Intn(nn), rng.Intn(nn)
			if a != b {
				n.AddDuplexLink(a, b, rng.Range(0.001, 0.02), 1e9)
			}
		}
		for trial := 0; trial < 20; trial++ {
			a, b, c := rng.Intn(nn), rng.Intn(nn), rng.Intn(nn)
			if n.Latency(a, c) > n.Latency(a, b)+n.Latency(b, c)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNetworkBuild builds a stress-shaped topology (a cloud, n/64
// fog sites, gateways spread over them) vertex by vertex and link by
// link, then routes once: AddNode and AddLink must not cost O(V) each
// while no route is cached.
func BenchmarkNetworkBuild(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net := New(sim.NewKernel(), 0)
				cloud := net.AddNode()
				fogs := max(n/64, 2)
				for f := 0; f < fogs; f++ {
					net.AddDuplexLink(net.AddNode(), cloud, 0.020, 1.25e9)
				}
				for g := 0; g < n-1-fogs; g++ {
					net.AddDuplexLink(net.AddNode(), 1+g%fogs, 0.002, 1.25e8)
				}
				if math.IsInf(net.Latency(n-1, cloud), 1) {
					b.Fatal("gateway cannot reach the cloud")
				}
			}
		})
	}
}

// line builds a chain of n vertices with identical hops.
func line(k *sim.Kernel, n int, hopLatency, capacity float64) *Network {
	net := New(k, n)
	for i := 1; i < n; i++ {
		net.AddDuplexLink(i-1, i, hopLatency, capacity)
	}
	return net
}

// bottleneck returns the minimum link capacity along the
// minimum-latency path from a to b, +Inf for a == b, and 0 if
// unreachable.
func bottleneck(n *Network, a, b int) float64 {
	if a == b {
		return math.Inf(1)
	}
	return n.to(a, b).bn
}
