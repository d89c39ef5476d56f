package netsim

import (
	"math"
	"testing"

	"continuum/internal/sim"
	"continuum/internal/workload"
)

// walkMetrics is the reference the tree-held metrics must match bit for
// bit: it materialises the path and reduces it left to right.
func walkMetrics(n *Network, a, b int, size float64) (lat, bn, mt float64) {
	if a == b {
		return 0, math.Inf(1), 0
	}
	path, err := n.Path(a, b)
	if err != nil {
		return math.Inf(1), 0, math.Inf(1)
	}
	lat, bn = 0, math.Inf(1)
	for _, l := range path {
		lat += l.Latency
		bn = min(bn, l.Capacity)
	}
	mt = lat
	if size > 0 && !math.IsInf(bn, 1) {
		mt += size / bn
	}
	return lat, bn, mt
}

// randomTopology draws a directed graph whose latencies come from a small
// set including 0 (so zero-latency links and equal-latency parallel paths
// are common) with capacities that differ between them; the last two
// vertices get no links, so they are unreachable in both directions.
func randomTopology(rng *workload.RNG) *Network {
	lats := []float64{0, 0.001, 0.002, 0.003, 0.1 + 0.2}
	caps := []float64{1e6, 2.5e6, 1e7, 1.25e9}
	n := New(sim.NewKernel(), 4+rng.Intn(20))
	live := n.NumNodes() - 2
	for i := 3 * live; i > 0; i-- {
		a, b := rng.Intn(live), rng.Intn(live)
		if a != b {
			n.AddLink(a, b, lats[rng.Intn(len(lats))], caps[rng.Intn(len(caps))])
		}
	}
	return n
}

func checkMetrics(t *testing.T, n *Network, size float64, stage string) {
	t.Helper()
	bits := math.Float64bits
	for a := 0; a < n.NumNodes(); a++ {
		for b := 0; b < n.NumNodes(); b++ {
			lat, bn, mt := walkMetrics(n, a, b, size)
			if got := n.Latency(a, b); bits(got) != bits(lat) {
				t.Fatalf("%s: Latency(%d,%d) = %v, path walk %v", stage, a, b, got, lat)
			}
			if got := bottleneck(n, a, b); bits(got) != bits(bn) {
				t.Fatalf("%s: Bottleneck(%d,%d) = %v, path walk %v", stage, a, b, got, bn)
			}
			if got := n.MessageTime(a, b, size); bits(got) != bits(mt) {
				t.Fatalf("%s: MessageTime(%d,%d) = %v, path walk %v", stage, a, b, got, mt)
			}
		}
	}
}

// TestPropertyTreeMetricsMatchPathWalk: Latency, Bottleneck and
// MessageTime read off the shortest-path tree are bitwise equal to
// reducing the materialised path, on random topologies and after every
// kind of topology change.
func TestPropertyTreeMetricsMatchPathWalk(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := workload.NewRNG(seed)
		n := randomTopology(rng)
		size := []float64{0, 1, 1e5, 3.3e7}[seed%4]
		checkMetrics(t, n, size, "initial")
		for step := 0; step < 4; step++ {
			switch step {
			case 0:
				l := n.links[rng.Intn(len(n.links))]
				n.SetLinkParams(l, []float64{0, 0.002, 0.05}[rng.Intn(3)], rng.Range(1e5, 1e8))
				checkMetrics(t, n, size, "SetLinkParams")
			case 1:
				n.AddLink(rng.Intn(n.NumNodes()), rng.Intn(n.NumNodes()-2), 0, rng.Range(1e5, 1e8))
				checkMetrics(t, n, size, "AddLink")
			case 2:
				v := n.AddNode()
				checkMetrics(t, n, size, "AddNode")
				n.AddDuplexLink(v, rng.Intn(v), 0.001, 1e6)
				checkMetrics(t, n, size, "AddNode+link")
			case 3:
				// Message must charge exactly the path's links.
				a, b := rng.Intn(n.NumNodes()), rng.Intn(n.NumNodes())
				path, err := n.Path(a, b)
				if err != nil {
					continue
				}
				before := make([]float64, len(n.links))
				for i, l := range n.links {
					before[i] = l.BytesCarried
				}
				n.Message(a, b, 7, func() {})
				onPath := map[*Link]bool{}
				for _, l := range path {
					onPath[l] = true
				}
				for i, l := range n.links {
					want := before[i]
					if onPath[l] {
						want += 7
					}
					if l.BytesCarried != want {
						t.Fatalf("seed %d: link %d carried %v, want %v", seed, l.ID, l.BytesCarried, want)
					}
				}
			}
		}
	}
}

// sink keeps the compiler from discarding the measured calls.
var sink float64

func TestTreeMetricsZeroAllocWarm(t *testing.T) {
	n := line(sim.NewKernel(), 64, 0.001, 1e9)
	n.MessageTime(0, 63, 1e6) // build the tree
	if a := testing.AllocsPerRun(1000, func() { sink += n.MessageTime(0, 63, 1e6) }); a != 0 {
		t.Fatalf("MessageTime allocates %v per call on a warm tree", a)
	}
	if a := testing.AllocsPerRun(1000, func() { sink += n.Latency(0, 63) + bottleneck(n, 0, 63) }); a != 0 {
		t.Fatalf("Latency/Bottleneck allocate %v per call on a warm tree", a)
	}
}

func BenchmarkMessageTime(b *testing.B) {
	n := line(sim.NewKernel(), 64, 0.001, 1e9)
	n.MessageTime(0, 63, 1e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += n.MessageTime(0, 1+i%63, 1e6)
	}
}
