package placement

import (
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
