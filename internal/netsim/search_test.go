package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"testing"

	"continuum/internal/sim"
	"continuum/internal/workload"
)

// refHeap is nodeHeap's reference: the container/heap implementation the
// typed heap replaces.
type refHeap []nodeDist

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(nodeDist)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refDijkstra is the full, eager shortest-path run from src on
// container/heap: every vertex's final entry and the order vertices
// settle in. A resumable search must agree with it on every vertex it
// has settled.
func refDijkstra(n *Network, src int) ([]hop, []int32) {
	t := make([]hop, n.NumNodes())
	for i := range t {
		t[i] = hop{dist: math.Inf(1), prev: -1}
	}
	t[src] = hop{dist: 0, bn: math.Inf(1), prev: -1}
	var order []int32
	pq := &refHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeDist)
		if it.d > t[it.id].dist {
			continue
		}
		t[it.id].settled = true
		order = append(order, int32(it.id))
		for _, l := range n.adj[it.id] {
			nd := it.d + l.Latency
			if nd < t[l.To].dist {
				t[l.To] = hop{dist: nd, bn: min(t[it.id].bn, l.Capacity), prev: int32(l.ID)}
				heap.Push(pq, nodeDist{l.To, nd})
			}
		}
	}
	return t, order
}

// checkSearches compares every started search with refDijkstra: the
// settle order is a prefix of the reference's, exactly the vertices in
// it are marked settled, their dist, bn and prev are bit-identical, and
// an exhausted search has settled every reachable vertex.
func checkSearches(t *testing.T, n *Network, stage string) {
	t.Helper()
	bits := math.Float64bits
	for src := range n.spt {
		s := &n.spt[src]
		if s.hops == nil {
			continue
		}
		ref, order := refDijkstra(n, src)
		if len(s.order) > len(order) || !slices.Equal(s.order, order[:len(s.order)]) {
			t.Fatalf("%s: source %d settled %v, reference order %v", stage, src, s.order, order)
		}
		if s.pq == nil && len(s.order) != len(order) {
			t.Fatalf("%s: source %d exhausted after %d of %d reachable vertices", stage, src, len(s.order), len(order))
		}
		settled := 0
		for v, h := range s.hops {
			if !h.settled {
				continue
			}
			settled++
			r := ref[v]
			if bits(h.dist) != bits(r.dist) || bits(h.bn) != bits(r.bn) || h.prev != r.prev {
				t.Fatalf("%s: source %d vertex %d = %+v, reference %+v", stage, src, v, h, r)
			}
		}
		if settled != len(s.order) {
			t.Fatalf("%s: source %d marks %d vertices settled, order has %d", stage, src, settled, len(s.order))
		}
	}
}

// TestPropertySearchMatchesFullDijkstra drives the resumable searches
// with every kind of query, in random order, on random graphs full of
// equal latencies, and after every batch and every topology change
// checks each settled entry against a full container/heap Dijkstra.
func TestPropertySearchMatchesFullDijkstra(t *testing.T) {
	bits := math.Float64bits
	for seed := uint64(1); seed <= 80; seed++ {
		rng := workload.NewRNG(seed)
		n := randomTopology(rng)
		for round := 0; round < 6; round++ {
			for q := 0; q < 12; q++ {
				a, b := rng.Intn(n.NumNodes()), rng.Intn(n.NumNodes())
				ref, order := refDijkstra(n, a)
				lat, bn, mt := 0.0, math.Inf(1), 0.0
				if a != b {
					lat, bn, mt = ref[b].dist, ref[b].bn, ref[b].dist
					if ref[b].prev >= 0 {
						mt += 1e5 / bn
					}
				}
				switch rng.Intn(6) {
				case 0:
					if got := n.Latency(a, b); bits(got) != bits(lat) {
						t.Fatalf("seed %d: Latency(%d,%d) = %v, want %v", seed, a, b, got, lat)
					}
				case 1:
					if got := bottleneck(n, a, b); bits(got) != bits(bn) {
						t.Fatalf("seed %d: Bottleneck(%d,%d) = %v, want %v", seed, a, b, got, bn)
					}
				case 2:
					if got := n.MessageTime(a, b, 1e5); bits(got) != bits(mt) {
						t.Fatalf("seed %d: MessageTime(%d,%d) = %v, want %v", seed, a, b, got, mt)
					}
				case 3:
					if math.IsInf(lat, 1) {
						continue
					}
					before := make([]float64, len(n.links))
					for i, l := range n.links {
						before[i] = l.BytesCarried
					}
					n.Message(a, b, 3, func() {})
					onPath := make([]bool, len(n.links))
					for at := b; at != a; at = n.links[ref[at].prev].From {
						onPath[ref[at].prev] = true
					}
					for i, l := range n.links {
						want := before[i]
						if onPath[i] {
							want += 3
						}
						if l.BytesCarried != want {
							t.Fatalf("seed %d: Message(%d,%d) left link %d at %v, want %v", seed, a, b, i, l.BytesCarried, want)
						}
					}
				case 4:
					i := rng.Intn(n.NumNodes() + 1)
					v, d, vbn, ok := n.Nearest(a, i)
					if ok != (i < len(order)) {
						t.Fatalf("seed %d: Nearest(%d,%d) ok=%v with %d reachable", seed, a, i, ok, len(order))
					}
					if ok && (v != int(order[i]) || bits(d) != bits(ref[v].dist) || bits(vbn) != bits(ref[v].bn)) {
						t.Fatalf("seed %d: Nearest(%d,%d) = %d at %v (bottleneck %v), reference %d at %v (bottleneck %v)",
							seed, a, i, v, d, vbn, order[i], ref[order[i]].dist, ref[order[i]].bn)
					}
				case 5:
					path, err := n.Path(a, b)
					var want []*Link
					for at := b; at != a && ref[at].prev >= 0; at = n.links[ref[at].prev].From {
						want = append([]*Link{n.links[ref[at].prev]}, want...)
					}
					if (err != nil) != (a != b && ref[b].prev < 0) || !slices.Equal(path, want) {
						t.Fatalf("seed %d: Path(%d,%d) = %v, %v; reference %v", seed, a, b, path, err, want)
					}
				}
			}
			checkSearches(t, n, "queries")
			switch round % 3 {
			case 0:
				l := n.links[rng.Intn(len(n.links))]
				n.SetLinkParams(l, []float64{0, 0.001, 0.002}[rng.Intn(3)], rng.Range(1e5, 1e8))
			case 1:
				n.AddLink(rng.Intn(n.NumNodes()), rng.Intn(n.NumNodes()-2), 0.001, rng.Range(1e5, 1e8))
			case 2:
				v := n.AddNode()
				n.AddDuplexLink(v, rng.Intn(v), 0.001, 1e6)
			}
			checkSearches(t, n, "topology change")
		}
	}
}

// TestNodeHeapMatchesContainerHeap: random push/pop sequences with
// heavy key ties pop the same (id, d) sequence from nodeHeap as from
// container/heap, so a shortest-path search breaks latency ties the way
// it always has.
func TestNodeHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := workload.NewRNG(seed)
		var got nodeHeap
		want := &refHeap{}
		keys := 1 + rng.Intn(4)
		for op := 0; op < 400; op++ {
			if rng.Intn(3) > 0 || len(got) == 0 {
				x := nodeDist{op, float64(rng.Intn(keys))}
				got.push(x)
				heap.Push(want, x)
				continue
			}
			g, w := got.pop(), heap.Pop(want).(nodeDist)
			if g != w {
				t.Fatalf("seed %d op %d: popped %+v, container/heap %+v", seed, op, g, w)
			}
		}
		for len(got) > 0 {
			if g, w := got.pop(), heap.Pop(want).(nodeDist); g != w {
				t.Fatalf("seed %d drain: popped %+v, container/heap %+v", seed, g, w)
			}
		}
	}
}

// TestSearchExtendsOnlyAsFarAsAsked: on a line, a route query to the
// third vertex out settles 4 vertices and asking for the 5th nearest
// settles 6, not the whole line.
func TestSearchExtendsOnlyAsFarAsAsked(t *testing.T) {
	n := line(sim.NewKernel(), 100, 0.001, 1e9)
	if got := n.Latency(0, 3); got != 0.003 {
		t.Fatalf("Latency(0, 3) = %v", got)
	}
	if got := len(n.spt[0].order); got != 4 {
		t.Fatalf("settled %d vertices to answer Latency(0, 3), want 4", got)
	}
	v, d, bn, ok := n.Nearest(0, 5)
	if !ok || v != 5 || d != n.Latency(0, 5) || bn != 1e9 {
		t.Fatalf("Nearest(0, 5) = %d, %v, %v, %v", v, d, bn, ok)
	}
	if got := len(n.spt[0].order); got != 6 {
		t.Fatalf("settled %d vertices to answer Nearest(0, 5), want 6", got)
	}
	if _, _, _, ok := n.Nearest(0, 100); ok {
		t.Fatal("Nearest(0, 100) on a 100-vertex line reported a vertex")
	}
	if n.spt[0].pq != nil {
		t.Fatal("exhausted search kept its heap")
	}
}

// TestDroppedRoutesServeTheNextNetwork: once network a drops its routes,
// the first search on a fresh network b of the same size runs in a's
// storage, and searching and dropping again allocates nothing.
func TestDroppedRoutesServeTheNextNetwork(t *testing.T) {
	k := sim.NewKernel()
	a, b := line(k, 100, 0.001, 1e9), line(k, 100, 0.001, 1e9)
	a.Latency(0, 99)
	prev := &a.spt[0].hops[0]
	a.DropRoutes()
	want := b.Latency(0, 99)
	if &b.spt[0].hops[0] != prev {
		t.Fatal("b's first search did not run in a's dropped storage")
	}
	b.DropRoutes()
	if allocs := testing.AllocsPerRun(1, func() {
		if got := b.Latency(0, 99); got != want {
			t.Fatalf("Latency(0, 99) = %v after a drop, %v before", got, want)
		}
		b.DropRoutes()
	}); allocs != 0 {
		t.Fatalf("searching in dropped storage allocated %v times", allocs)
	}
}

// TestSecondDropAndSearchCycleAllocatesNothing is a scenario run's use of
// the store, twice over: build a network, search from a few sources until
// each runs out (handing its heap back at once), drop the routes and
// throw the network away. Every search reaches as far, so each needs the
// same storage. The second, identical cycle searches wholly in the
// first's: each search gets back hops, an order and a heap, so it
// allocates nothing, with the collector on.
func TestSecondDropAndSearchCycleAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	star := func() *Network {
		n := New(k, 65) // hub 0 and 64 leaves
		for leaf := 1; leaf <= 64; leaf++ {
			n.AddDuplexLink(0, leaf, 0.001*float64(leaf%4+1), 1e9)
		}
		n.started = make([]int32, 0, 4) // count only the searches' storage
		return n
	}
	nets := []*Network{star(), star()}
	cycle := 0
	allocs := testing.AllocsPerRun(1, func() {
		n := nets[cycle]
		cycle++
		for _, src := range []int{0, 3, 7, 12} {
			if _, _, _, ok := n.Nearest(src, 65); ok {
				t.Fatalf("Nearest(%d, 65) on 65 vertices reported a vertex", src)
			}
		}
		n.DropRoutes()
	})
	if allocs != 0 {
		t.Fatalf("the second drop-and-search cycle allocated %v times", allocs)
	}
}

// TestSharedStoreAcrossConcurrentNetworks: goroutines that each build,
// query and drop networks of different sizes at once, all drawing on
// the one store, keep every settled entry bit-identical to a full
// Dijkstra, before and after each drop. Run it under -race.
func TestSharedStoreAcrossConcurrentNetworks(t *testing.T) {
	for g := 0; g < 4; g++ {
		t.Run(fmt.Sprint(g), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 30; seed++ {
				rng := workload.NewRNG(seed*8 + uint64(g))
				n := randomTopology(rng)
				for pass := 0; pass < 3; pass++ {
					for q := 0; q < 10; q++ {
						a := rng.Intn(n.NumNodes())
						if rng.Intn(2) == 0 {
							n.Latency(a, rng.Intn(n.NumNodes()))
						} else {
							n.Nearest(a, rng.Intn(n.NumNodes()+1))
						}
					}
					checkSearches(t, n, fmt.Sprintf("seed %d pass %d", seed, pass))
					n.DropRoutes()
				}
			}
		})
	}
}
