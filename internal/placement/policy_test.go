package placement

import (
	"fmt"
	"math"
	"testing"

	"continuum/internal/data"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/sim"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// testEnv builds a 3-node continuum on a line: edge(0) -- fog(1) -- cloud(2).
// The edge is slow but close; the cloud is fast but 40ms away.
func testEnv(t *testing.T) (*sim.Kernel, *Env) {
	t.Helper()
	k := sim.NewKernel()
	net := netsim.New(k, 3)
	net.AddDuplexLink(0, 1, 0.002, 1e8) // edge-fog: 2ms
	net.AddDuplexLink(1, 2, 0.040, 1e9) // fog-cloud: 40ms

	edge := node.New(k, 0, node.Spec{
		Name: "edge", Class: node.Gateway,
		Cores: 2, CoreFlops: 1e9, MemBytes: 1 << 30,
		IdleWatts: 1, ActiveWattsCore: 2,
	})
	fog := node.New(k, 1, node.Spec{
		Name: "fog", Class: node.Fog,
		Cores: 8, CoreFlops: 3e9, MemBytes: 16 << 30,
		Accel:     node.Accelerator{Kind: node.GPU, Count: 1, Flops: 1e12, Watts: 70},
		IdleWatts: 30, ActiveWattsCore: 6,
	})
	cloud := node.New(k, 2, node.Spec{
		Name: "cloud", Class: node.Cloud,
		Cores: 32, CoreFlops: 4e9, MemBytes: 256 << 30,
		Accel:     node.Accelerator{Kind: node.GPU, Count: 4, Flops: 1e13, Watts: 250},
		IdleWatts: 200, ActiveWattsCore: 10,
		DollarPerHour: 10, EgressPerByte: 1e-10,
	})
	return k, &Env{Net: net, Nodes: []*node.Node{edge, fog, cloud}}
}

func smallTask() *task.Task {
	return &task.Task{Name: "t", ScalarWork: 1e8, OutputBytes: 1e3}
}

func bigTask() *task.Task {
	return &task.Task{Name: "big", ScalarWork: 1e11, OutputBytes: 1e6}
}

func TestEdgeOnlySticksToEdge(t *testing.T) {
	_, env := testEnv(t)
	n := EdgeOnly{}.Select(env, Request{Task: smallTask(), Origin: 0})
	if n.Class > node.Fog {
		t.Fatalf("EdgeOnly picked %s", n.Name)
	}
}

func TestCloudOnlySticksToCloud(t *testing.T) {
	_, env := testEnv(t)
	n := CloudOnly{}.Select(env, Request{Task: smallTask(), Origin: 0})
	if n.Class < node.Cloud {
		t.Fatalf("CloudOnly picked %s", n.Name)
	}
}

func TestGreedyLatencySmallTaskStaysLocal(t *testing.T) {
	_, env := testEnv(t)
	// Edge: 0.1s exec. Fog: 2ms + 0.033s. Cloud: 42ms + 0.025s = 0.067s.
	// The nearby tiers beat the WAN round trip; fog is optimal here.
	n := GreedyLatency{}.Select(env, Request{Task: smallTask(), Origin: 0})
	if n.Class > node.Fog {
		t.Fatalf("small task placed on %s, want an edge-tier node", n.Name)
	}
}

func TestGreedyLatencyBigTaskGoesInward(t *testing.T) {
	_, env := testEnv(t)
	// 100s on edge vs 25s on cloud + 80ms: cloud wins.
	n := GreedyLatency{}.Select(env, Request{Task: bigTask(), Origin: 0})
	if n.Name == "edge" {
		t.Fatalf("big task stuck on edge")
	}
}

func TestGreedyLatencyAccountsForLoad(t *testing.T) {
	k, env := testEnv(t)
	// Saturate the edge with long tasks; the next small task should go
	// elsewhere.
	for i := 0; i < 8; i++ {
		env.Nodes[0].Execute(1e10, 0, node.NoAccel, nil)
	}
	k.RunUntil(0.001)
	n := GreedyLatency{}.Select(env, Request{Task: smallTask(), Origin: 0})
	if n.Name == "edge" {
		t.Fatal("policy ignored queue backlog")
	}
}

func TestRandomCoversNodes(t *testing.T) {
	_, env := testEnv(t)
	r := Random{RNG: workload.NewRNG(1)}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Select(env, Request{Task: smallTask(), Origin: 0}).Name] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random policy covered %d nodes", len(seen))
	}
}

func TestRoundRobinCycles(t *testing.T) {
	_, env := testEnv(t)
	rr := &RoundRobin{}
	var names []string
	for i := 0; i < 6; i++ {
		names = append(names, rr.Select(env, Request{Task: smallTask(), Origin: 0}).Name)
	}
	if names[0] != names[3] || names[1] != names[4] || names[0] == names[1] {
		t.Fatalf("round robin order: %v", names)
	}
}

func TestGreedyEnergyPrefersLowPower(t *testing.T) {
	_, env := testEnv(t)
	// Scalar task: edge burns 2W for 0.1s = 0.2J; cloud burns 10W for
	// 0.025s = 0.25J; edge wins on energy.
	n := GreedyEnergy{}.Select(env, Request{Task: smallTask(), Origin: 0})
	if n.Name != "edge" {
		t.Fatalf("GreedyEnergy picked %s", n.Name)
	}
}

func TestGreedyCostAvoidsBilledNodes(t *testing.T) {
	_, env := testEnv(t)
	n := GreedyCost{}.Select(env, Request{Task: bigTask(), Origin: 0})
	if n.DollarPerHour > 0 {
		t.Fatalf("GreedyCost picked billed node %s", n.Name)
	}
}

func TestDataAwareFollowsReplicas(t *testing.T) {
	k, env := testEnv(t)
	fab := data.NewFabric(env.Net, workload.NewRNG(2))
	fab.AddStore(0, 1e9, data.LRU)
	fab.AddStore(1, 1e9, data.LRU)
	fab.AddStore(2, 1e9, data.LRU)
	big := data.Dataset{Name: "big-input", Bytes: 5e9} // 5GB pinned at cloud
	fab.Pin(big, 2)
	env.Fabric = fab
	_ = k
	tk := &task.Task{
		Name: "analyze", ScalarWork: 1e9,
		Inputs: []task.DataRef{{Name: "big-input", Bytes: big.Bytes}},
	}
	n := DataAware{}.Select(env, Request{Task: tk, Origin: 0})
	if n.Name != "cloud" {
		t.Fatalf("DataAware placed 5GB-input task on %s, want cloud (data home)", n.Name)
	}
	// GreedyLatency (replica-blind) ships from origin 0 and decides
	// differently — it believes the data must cross from the edge.
	g := GreedyLatency{}.Select(env, Request{Task: tk, Origin: 0})
	if g.Name == "cloud" {
		t.Skip("replica-blind baseline coincidentally matched; acceptable")
	}
}

func TestDataAwareUnknownDatasetFallsBack(t *testing.T) {
	_, env := testEnv(t)
	fab := data.NewFabric(env.Net, workload.NewRNG(3))
	fab.AddStore(0, 1e9, data.LRU)
	env.Fabric = fab
	tk := &task.Task{
		Name: "t", ScalarWork: 1e8,
		Inputs: []task.DataRef{{Name: "nowhere", Bytes: 1e3}},
	}
	// Must not panic; falls back to origin shipping estimates.
	n := DataAware{}.Select(env, Request{Task: tk, Origin: 0})
	if n == nil {
		t.Fatal("nil node")
	}
}

func TestMultiObjectiveExtremesMatchSingle(t *testing.T) {
	_, env := testEnv(t)
	req := Request{Task: bigTask(), Origin: 0}
	latOnly := MultiObjective{W: Weights{Latency: 1}}.Select(env, req)
	pureLat := GreedyLatency{}.Select(env, req)
	if latOnly.Name != pureLat.Name {
		t.Fatalf("latency-only multi = %s, greedy = %s", latOnly.Name, pureLat.Name)
	}
	engOnly := MultiObjective{W: Weights{Energy: 1}}.Select(env, req)
	pureEng := GreedyEnergy{}.Select(env, req)
	if engOnly.Name != pureEng.Name {
		t.Fatalf("energy-only multi = %s, greedy = %s", engOnly.Name, pureEng.Name)
	}
}

func TestTensorTaskPrefersAccelNode(t *testing.T) {
	_, env := testEnv(t)
	tk := &task.Task{Name: "train", TensorWork: 1e12, Accel: node.GPU}
	n := GreedyLatency{}.Select(env, Request{Task: tk, Origin: 0})
	if !n.HasAccel(node.GPU) {
		t.Fatalf("tensor task placed on accel-free node %s", n.Name)
	}
}

func TestEstimateLatencyComponents(t *testing.T) {
	_, env := testEnv(t)
	req := Request{Task: smallTask(), Origin: 0}
	lat := EstimateLatency(env, req, env.Nodes[0])
	// Local: no movement beyond 0, exec = 1e8/1e9 = 0.1s.
	if lat < 0.1 || lat > 0.11 {
		t.Fatalf("local estimate = %v, want ~0.1", lat)
	}
	latCloud := EstimateLatency(env, req, env.Nodes[2])
	// Cloud: 42ms latency + exec 0.025.
	if latCloud < 0.06 || latCloud > 0.08 {
		t.Fatalf("cloud estimate = %v, want ~0.067", latCloud)
	}
}

// TestSelectNilWhenNothingEligible pins the empty-set contract: argmin of
// nothing is nil, and every policy returns nil without drawing from its
// RNG when no candidate is eligible.
func TestSelectNilWhenNothingEligible(t *testing.T) {
	if argmin(nil, func(*node.Node) float64 { return 0 }) != nil {
		t.Fatal("argmin of no nodes is not nil")
	}
	_, env := testEnv(t)
	env.Eligible = func(*node.Node) bool { return false }
	rng := workload.NewRNG(1)
	rr := &RoundRobin{}
	for _, p := range []Policy{EdgeOnly{}, CloudOnly{}, Random{RNG: rng}, rr, GreedyLatency{},
		DataAware{}, GreedyEnergy{}, GreedyCost{}, MultiObjective{W: Weights{Latency: 1}}, NewAdaptive(1)} {
		if n := p.Select(env, Request{Task: smallTask(), Origin: 0}); n != nil {
			t.Errorf("%s chose %s with nothing eligible", p.Name(), n.Name)
		}
	}
	if got, want := rng.Uint64(), workload.NewRNG(1).Uint64(); got != want || rr.next != 0 {
		t.Error("a policy advanced its state while returning nil")
	}
}

func TestFilterClassFallsBack(t *testing.T) {
	_, env := testEnv(t)
	// No HPC nodes: CloudOnly degrades to cloud; EdgeOnly with a sensor-
	// only band falls back to all nodes rather than panicking.
	got := filterClass(env.Nodes, node.Sensor, node.Sensor)
	if len(got) != len(env.Nodes) {
		t.Fatalf("empty class filter returned %d nodes", len(got))
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{Label: "a", Latency: 1, Energy: 10, Dollars: 5},
		{Label: "b", Latency: 2, Energy: 5, Dollars: 5},
		{Label: "c", Latency: 3, Energy: 20, Dollars: 10}, // dominated by a&b? a: lat1<=3,e10<=20,d5<=10 strict -> dominated
		{Label: "d", Latency: 0.5, Energy: 50, Dollars: 1},
	}
	front := ParetoFront(pts)
	names := map[string]bool{}
	for _, p := range front {
		names[p.Label] = true
	}
	if !names["a"] || !names["b"] || !names["d"] || names["c"] {
		t.Fatalf("front = %v", front)
	}
	// Sorted by latency.
	for i := 1; i < len(front); i++ {
		if front[i].Latency < front[i-1].Latency {
			t.Fatal("front not sorted")
		}
	}
}

func TestParetoFrontDuplicates(t *testing.T) {
	pts := []Point{
		{Label: "x", Latency: 1, Energy: 1, Dollars: 1},
		{Label: "y", Latency: 1, Energy: 1, Dollars: 1},
	}
	front := ParetoFront(pts)
	if len(front) != 2 {
		t.Fatalf("identical points should both survive, got %v", front)
	}
}

// TestMultiObjectiveReusesScratch pins that the per-candidate score
// slices live in the Env's scratch, not in a fresh allocation per
// decision.
func TestMultiObjectiveReusesScratch(t *testing.T) {
	_, env := testEnv(t)
	m := MultiObjective{W: Weights{Latency: 1, Energy: 1, Dollars: 1}}
	req := Request{Task: smallTask(), Origin: 0}
	m.Select(env, req)
	if a := testing.AllocsPerRun(100, func() { m.Select(env, req) }); a != 0 {
		t.Fatalf("MultiObjective.Select allocates %.0f times per decision", a)
	}
}

// TestGreedyLatencySelectAllocatesNothing pins that a decision from an
// origin whose candidate lists are already built allocates nothing.
func TestGreedyLatencySelectAllocatesNothing(t *testing.T) {
	env := stressEnv(1000)
	tk := &task.Task{ScalarWork: 5e9, Inputs: []task.DataRef{{Name: "in", Bytes: 2e5}}}
	origins := env.Nodes[len(env.Nodes)-8:]
	for _, o := range origins {
		GreedyLatency{}.Select(env, Request{Task: tk, Origin: o.ID})
	}
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		GreedyLatency{}.Select(env, Request{Task: tk, Origin: origins[i%len(origins)].ID})
		i++
	}); a != 0 {
		t.Fatalf("GreedyLatency.Select allocates %.2f times per decision", a)
	}
}

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

// tieStar builds a star of 16–64 leaves hung off a hub (the first node)
// on links of one dyadic latency, so the leaves tie on latency and, idle
// and of one spec, on score. The links are added in an order shuffled
// against the leaves' IDs, so a search settles the run of leaves out of
// ID order. Up to three outer leaves hang one link farther out, beyond
// an inner leaf, so a scan that reaches one ends the run. The leaves have
// one or two specs, and about half of them carry busy cores.
func tieStar(rng *workload.RNG) (*Env, []*netsim.Link) {
	k := sim.NewKernel()
	net := netsim.New(k, 0)
	env := &Env{Net: net}
	add := func(spec node.Spec, busy int) {
		nd := node.New(k, net.AddNode(), spec)
		for ; busy > 0; busy-- {
			nd.Cores.Acquire(1, func() {})
		}
		env.Nodes = append(env.Nodes, nd)
	}
	add(node.Spec{Name: "hub", Cores: 2, CoreFlops: pick(rng, 2e9, 4e9)}, rng.Intn(5))
	specs := []node.Spec{{Cores: 1, CoreFlops: 2e9}, {Cores: pick(rng, 1, 2), CoreFlops: pick(rng, 1e9, 2e9)}}
	leaves := 16 + rng.Intn(49)
	for i := 0; i < leaves; i++ {
		spec := specs[rng.Intn(len(specs))]
		spec.Name = fmt.Sprintf("leaf%d", i)
		busy := 0
		if rng.Intn(2) == 0 {
			busy = 1 + rng.Intn(spec.Cores+2)
		}
		add(spec, busy)
	}
	lat, outer := pick(rng, 0.125, 0.25, 0.5), rng.Intn(4)
	var links []*netsim.Link
	perm := rng.Perm(leaves)
	for j, i := range perm {
		to := env.Nodes[0] // the hub
		if j >= leaves-outer {
			to = env.Nodes[1+perm[0]] // the first inner leaf linked
		}
		ab, ba := net.AddDuplexLink(env.Nodes[1+i].ID, to.ID, lat, pick(rng, 1e6, 2e6))
		links = append(links, ab, ba)
	}
	return env, links
}

// TestGreedyLatencyPrunedMatchesFullScan is the exactness property of the
// bounded scan, of the (score, ID) skip and of scoring from the index: on
// 200 random continua with equal-latency ties, unreachable nodes, busy
// cores, random eligibility masks (all-ineligible included), tasks with
// no, zero-byte, one or two inputs, and link retunes between decisions,
// and on 100 tie-heavy stars whose leaves also fill up between
// decisions, GreedyLatency picks the node a full scan over
// EstimateLatency picks, every time.
func TestGreedyLatencyPrunedMatchesFullScan(t *testing.T) {
	rng := workload.NewRNG(2019)
	var decisions, nils int
	for c := 0; c < 300; c++ {
		star := c >= 200
		gen := randomContinuum
		if star {
			gen = tieStar
		}
		env, links := gen(rng)
		for d := 0; d < 20; d++ {
			if star {
				// Rarer retunes keep the lists, and their sorted runs,
				// across decisions; a leaf taking work moves the winner.
				if rng.Intn(8) == 0 {
					env.Net.SetLinkParams(links[rng.Intn(len(links))], pick(rng, 0.125, 0.25, 0.5), pick(rng, 1e6, 2e6))
				}
				if rng.Intn(2) == 0 {
					env.Nodes[rng.Intn(len(env.Nodes))].Cores.Acquire(1, func() {})
				}
			} else if len(links) > 0 && rng.Intn(3) == 0 {
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
			// No inputs and zero-byte inputs take EstimateLatency's
			// Latency branch; two inputs check that their bytes are summed.
			switch rng.Intn(4) {
			case 1:
				tk.Inputs = []task.DataRef{{Name: "in", Bytes: pick(rng, 1e6, 2e6)}}
			case 2:
				tk.Inputs = []task.DataRef{{Name: "in", Bytes: 0}}
			case 3:
				tk.Inputs = []task.DataRef{{Name: "a", Bytes: pick(rng, 0, 1e6, 2e6)}, {Name: "b", Bytes: pick(rng, 0.5e6, 1e6)}}
			}
			req := Request{Task: tk, Origin: env.Nodes[rng.Intn(len(env.Nodes))].ID}
			got, want := GreedyLatency{}.Select(view, req), fullScanGreedyLatency(view, req)
			if got != want {
				t.Fatalf("continuum %d (star %v) decision %d: bounded scan chose %s, full scan %s", c, star, d, nameOf(got), nameOf(want))
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

// TestGreedyLatencyAsksEligibleOfWinnersOnly: from a router behind a
// loaded hub with 64 idle leaves of one spec, every leaf ties on score,
// and the lowest ID wins. Once the first decision has listed the leaves
// and settled the farther leaf beyond them, their run is in ID order, so
// a decision asks Eligible twice: of the hub, which sets the first best,
// and of the lowest-ID leaf, which beats it. Every other leaf ties the
// best's bound with a higher ID and is skipped without reading the node.
// Asking Eligible of every candidate scanned asks it 65 times.
func TestGreedyLatencyAsksEligibleOfWinnersOnly(t *testing.T) {
	k := sim.NewKernel()
	net := netsim.New(k, 1) // vertex 0 is the router the requests come from
	env := &Env{Net: net}
	add := func(spec node.Spec) *node.Node {
		nd := node.New(k, net.AddNode(), spec)
		env.Nodes = append(env.Nodes, nd)
		return nd
	}
	hub := add(node.Spec{Name: "hub", Cores: 1, CoreFlops: 4e9})
	for c := 0; c < 3; c++ {
		hub.Cores.Acquire(1, func() {})
	}
	net.AddDuplexLink(0, hub.ID, 0.125, 1e6)
	leaf := node.Spec{Cores: 2, CoreFlops: 2e9}
	for i := 0; i < 64; i++ {
		leaf.Name = fmt.Sprintf("leaf%02d", i)
		add(leaf)
	}
	rng := workload.NewRNG(5)
	for _, i := range rng.Perm(64) {
		net.AddDuplexLink(hub.ID, env.Nodes[1+i].ID, 0.25, 1e6)
	}
	leaf.Name = "far"
	net.AddDuplexLink(env.Nodes[1].ID, add(leaf).ID, 0.5, 1e6)

	asked := 0
	env.Eligible = func(*node.Node) bool { asked++; return true }
	req := Request{Task: &task.Task{ScalarWork: 1e9}, Origin: 0}
	GreedyLatency{}.Select(env, req)
	for d := 0; d < 10; d++ {
		asked = 0
		got := GreedyLatency{}.Select(env, req)
		if asked > 2 {
			t.Fatalf("decision %d asked Eligible %d times, want at most 2", d, asked)
		}
		if want := fullScanGreedyLatency(env, req); got != want || got.Name != "leaf00" {
			t.Fatalf("decision %d: chose %s, full scan %s, want leaf00", d, nameOf(got), nameOf(want))
		}
	}
}

// TestGreedyLatencyUnreachableAndTopologyChanges covers what the random
// continua rarely hit: no candidate reachable, a reachable candidate
// whose score is +Inf tying with unreachable ones, and a vertex and link
// added after the index was built.
func TestGreedyLatencyUnreachableAndTopologyChanges(t *testing.T) {
	tk := &task.Task{ScalarWork: 1e9}
	// Vertex 0 is a router the requests originate at; nodes 1..4 are
	// candidates, none linked yet.
	build := func() *Env {
		k := sim.NewKernel()
		net := netsim.New(k, 1)
		env := &Env{Net: net}
		for i := 1; i <= 4; i++ {
			spec := node.Spec{Name: fmt.Sprintf("n%d", i), Cores: 1, CoreFlops: float64(i) * 1e9}
			env.Nodes = append(env.Nodes, node.New(k, net.AddNode(), spec))
		}
		return env
	}
	check := func(t *testing.T, env *Env, want string) {
		t.Helper()
		req := Request{Task: tk, Origin: 0}
		got, ref := GreedyLatency{}.Select(env, req), fullScanGreedyLatency(env, req)
		if got != ref || nameOf(got) != want {
			t.Fatalf("chose %s, full scan %s, want %s", nameOf(got), nameOf(ref), want)
		}
	}
	not := func(name string) func(*node.Node) bool {
		return func(n *node.Node) bool { return n.Name != name }
	}

	t.Run("all-unreachable", func(t *testing.T) {
		env := build()
		check(t, env, "n1")
		env.Eligible = not("n1")
		check(t, env, "n2")
		env.Eligible = func(*node.Node) bool { return false }
		check(t, env, "nil")
	})

	t.Run("reachable-inf-score", func(t *testing.T) {
		env := build()
		k := env.Net.Kernel()
		// A core so slow that ScalarTime overflows to +Inf, busy so the
		// wait term is +Inf rather than 0·Inf = NaN.
		slow := node.New(k, env.Net.AddNode(), node.Spec{Name: "slow", Cores: 1, CoreFlops: 5e-324})
		slow.Cores.Acquire(1, func() {})
		env.Nodes = append(env.Nodes, slow)
		env.Net.AddLink(0, slow.ID, 0.001, 1e6)
		if s := EstimateLatency(env, Request{Task: tk, Origin: 0}, slow); !math.IsInf(s, 1) {
			t.Fatalf("slow node scores %v, want +Inf", s)
		}
		check(t, env, "n1") // every score is +Inf: the lowest ID wins
		env.Eligible = func(n *node.Node) bool { return n == slow }
		check(t, env, "slow")
	})

	t.Run("add-node-and-link-after-build", func(t *testing.T) {
		env := build()
		env.Net.AddDuplexLink(0, env.Nodes[0].ID, 0.5, 1e6)
		env.Net.AddDuplexLink(0, env.Nodes[3].ID, 2, 1e6)
		check(t, env, "n1") // 0.5 + 1 s beats 2 + 0.25 s
		// A new router vertex gives n4 a 0.25 s path.
		r := env.Net.AddNode()
		env.Net.AddLink(0, r, 0.125, 1e6)
		env.Net.AddLink(r, env.Nodes[3].ID, 0.125, 1e6)
		check(t, env, "n4")
	})
}

// TestGreedyLatencyStopsAFullyListedPart: on a backlogged stress-shaped
// fleet (one cloud, 15 fogs, 984 gateways), a decision from a gateway
// lists every fog and the cloud while their bounds are still below the
// best score. Their parts stop there, so the origin's search settles the
// gateway's neighbourhood and the fogs, not the network. A scan that
// settles the next vertex whenever a list runs out, even a list that
// holds every member of its part, walks all 1000 vertices looking for a
// 16th fog.
func TestGreedyLatencyStopsAFullyListedPart(t *testing.T) {
	env := backlogged(stressEnv(1000))
	tk := &task.Task{ScalarWork: 5e9, OutputBytes: 1e4, Inputs: []task.DataRef{{Name: "in", Bytes: 2e5}}}
	origin := env.Nodes[len(env.Nodes)-1].ID
	req := Request{Task: tk, Origin: origin}
	got := GreedyLatency{}.Select(env, req)
	settled := env.shared().near.origins[origin].settled
	if want := fullScanGreedyLatency(env, req); got != want {
		t.Fatalf("bounded scan chose %s, full scan %s", nameOf(got), nameOf(want))
	}
	if v := env.Net.NumNodes(); settled >= v/4 {
		t.Fatalf("settled %d of %d vertices from gateway %d", settled, v, origin)
	}
	// The precondition: every cloud and fog scores above the farthest
	// gateway's latency plus the fog exec time.
	fogExec := env.Nodes[1].ExecTime(tk.ScalarWork, tk.TensorWork, tk.Accel)
	farthest := 0.0
	for _, n := range env.Nodes {
		farthest = max(farthest, env.Net.Latency(origin, n.ID))
	}
	for _, n := range env.Nodes {
		if n.Class != node.Gateway && EstimateLatency(env, req, n) <= farthest+fogExec {
			t.Fatalf("%s scores %v, not above %v + %v", n.Name, EstimateLatency(env, req, n), farthest, fogExec)
		}
	}
}
