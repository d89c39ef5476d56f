package core

import (
	"math"
	"testing"

	"continuum/internal/data"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

func miniContinuum() *Continuum {
	c := New()
	cat := node.Catalog()
	gw := cat["gateway"]
	gw.Name = "gw"
	cl := cat["cloud"]
	cl.Name = "cloud"
	a := c.AddNode(gw)
	b := c.AddNode(cl)
	c.Connect(a.ID, b.ID, 0.020, 1.25e9)
	return c
}

// enableFabric attaches a data fabric with one store of the given
// capacity and policy on every node, returning the stores by node ID.
func enableFabric(c *Continuum, rng *workload.RNG, capacity float64, pol data.Policy) map[int]*data.Store {
	c.Fabric = data.NewFabric(c.Net, rng)
	stores := map[int]*data.Store{}
	for _, n := range c.Nodes {
		stores[n.ID] = c.Fabric.AddStore(n.ID, capacity, pol)
	}
	return stores
}

func TestBuilderBasics(t *testing.T) {
	c := miniContinuum()
	if len(c.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	env := c.Env()
	if env.Net != c.Net || len(env.Nodes) != 2 {
		t.Fatal("Env mismatch")
	}
}

func TestBuildThreeTierShape(t *testing.T) {
	tt := BuildThreeTier(DefaultThreeTierParams(3, 4))
	if len(tt.Gateways) != 3 || len(tt.Sensors) != 3 || len(tt.Sensors[0]) != 4 {
		t.Fatal("three-tier shape wrong")
	}
	for _, n := range tt.Nodes {
		if math.IsInf(tt.Net.Latency(tt.Cloud.ID, n.ID), 1) || math.IsInf(tt.Net.Latency(n.ID, tt.Cloud.ID), 1) {
			t.Fatalf("%s and the cloud do not reach each other", n.Name)
		}
	}
	// Sensor to cloud latency: 5 + 2 + 20 ms.
	lat := tt.Net.Latency(tt.Sensors[0][0].ID, tt.Cloud.ID)
	if math.Abs(lat-0.027) > 1e-9 {
		t.Fatalf("sensor->cloud latency = %v, want 0.027", lat)
	}
	cn := tt.ComputeNodes()
	if len(cn) != 3+2 {
		t.Fatalf("ComputeNodes = %d, want 5", len(cn))
	}
}

func TestRunStreamBasic(t *testing.T) {
	c := miniContinuum()
	var jobs []StreamJob
	for i := 0; i < 20; i++ {
		jobs = append(jobs, StreamJob{
			Task:   &task.Task{Name: "t", ScalarWork: 1e8, OutputBytes: 1e3},
			Origin: c.Nodes[0].ID,
			Submit: float64(i) * 0.1,
		})
	}
	st := c.RunStream(placement.GreedyLatency{}, jobs, nil, Options{})
	if st.Completed != 20 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.Latency.Count() != 20 {
		t.Fatal("latency histogram incomplete")
	}
	if st.Latency.Mean() <= 0 {
		t.Fatal("nonpositive latency")
	}
	if st.Joules <= 0 {
		t.Fatal("no energy recorded")
	}
	if st.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestRunStreamEdgeVsCloudLatency(t *testing.T) {
	// With tiny tasks, placing on the local gateway must beat the cloud on
	// latency (WAN RTT dominates).
	mk := func() (*Continuum, []StreamJob) {
		c := miniContinuum()
		var jobs []StreamJob
		for i := 0; i < 50; i++ {
			jobs = append(jobs, StreamJob{
				Task:   &task.Task{Name: "t", ScalarWork: 1e7, OutputBytes: 100},
				Origin: c.Nodes[0].ID,
				Submit: float64(i) * 0.05,
			})
		}
		return c, jobs
	}
	c1, j1 := mk()
	edge := c1.RunStream(placement.EdgeOnly{}, j1, nil, Options{})
	c2, j2 := mk()
	cloud := c2.RunStream(placement.CloudOnly{}, j2, nil, Options{})
	if edge.Latency.Mean() >= cloud.Latency.Mean() {
		t.Fatalf("edge mean %v not below cloud %v for tiny tasks",
			edge.Latency.Mean(), cloud.Latency.Mean())
	}
}

func TestRunStreamWithFabricStaging(t *testing.T) {
	c := miniContinuum()
	rng := workload.NewRNG(1)
	enableFabric(c, rng, 1e9, data.LRU)
	ds := data.Dataset{Name: "model", Bytes: 1e6}
	c.Fabric.Pin(ds, c.Nodes[1].ID) // model lives in the cloud
	jobs := []StreamJob{{
		Task: &task.Task{
			Name: "infer", ScalarWork: 1e8, OutputBytes: 100,
			Inputs: []task.DataRef{{Name: "model", Bytes: ds.Bytes}},
		},
		Origin: c.Nodes[0].ID,
		Submit: 0,
	}}
	st := c.RunStream(placement.DataAware{}, jobs, nil, Options{})
	if st.Completed != 1 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	// The data-aware policy should have run it at the cloud, where the
	// model already lives (no staging).
	if st.PerNode["cloud"] != 1 {
		t.Fatalf("PerNode = %v, want cloud", st.PerNode)
	}
}

func TestRunDAGChainSingleNode(t *testing.T) {
	c := miniContinuum()
	d := task.NewDAG("chain")
	d.AddTask("a", 2.5e9, 1e3) // 1s on gateway core (2.5e9 flops)
	d.AddTask("b", 2.5e9, 1e3)
	d.Connect(0, 1, -1)
	sched := placement.Schedule{
		Algorithm: "manual",
		Assign:    map[task.ID]int{0: 0, 1: 0},
		EstFinish: map[task.ID]float64{},
	}
	st, err := c.RunDAG(d, sched, c.Env(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Makespan-2.0) > 1e-9 {
		t.Fatalf("makespan = %v, want 2.0", st.Makespan)
	}
}

func TestRunDAGCrossNodeTransfer(t *testing.T) {
	c := miniContinuum()
	d := task.NewDAG("xfer")
	d.AddTask("a", 2.5e9, 1.25e9) // outputs 1.25GB -> 1s over the WAN link
	d.AddTask("b", 3.2e9*96, 0)   // 1s on cloud using... 1 core: 96 cores*3.2e9 -> we use 1 core
	d.Connect(0, 1, -1)
	sched := placement.Schedule{
		Algorithm: "manual",
		Assign:    map[task.ID]int{0: 0, 1: 1},
	}
	st, err := c.RunDAG(d, sched, c.Env(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a: 1s; transfer: 20ms + 1s; b on one cloud core: 96s.
	want := 1.0 + 0.020 + 1.0 + 96.0
	if math.Abs(st.Makespan-want) > 0.01 {
		t.Fatalf("makespan = %v, want ~%v", st.Makespan, want)
	}
}

func TestRunDAGParallelismExploited(t *testing.T) {
	c := miniContinuum()
	rng := workload.NewRNG(2)
	d := task.FanOutIn(rng, 8, task.GenSpec{MeanWork: 2.5e9, MeanBytes: 1e3})
	env := c.Env()
	heft := placement.HEFT(env, d)
	st, err := c.RunDAG(d, heft, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Serial execution of 10 x 1s-ish tasks would be ~10s on the gateway;
	// with fan-out on multiple cores makespan must be far less than the sum.
	sumWork := 0.0
	for _, tk := range d.Tasks {
		sumWork += tk.ScalarWork / 2.5e9
	}
	if st.Makespan > 0.8*sumWork {
		t.Fatalf("makespan %v shows no parallelism (serial %v)", st.Makespan, sumWork)
	}
}

func TestRunDAGHEFTNoWorseThanRandom(t *testing.T) {
	rng := workload.NewRNG(3)
	spec := task.GenSpec{MeanWork: 5e9, WorkSigma: 1.0, MeanBytes: 1e5, BytesSigma: 0.5}
	var heftTot, randTot float64
	for trial := 0; trial < 5; trial++ {
		d := task.RandomLayered(rng.Split(), 4, 6, 3, spec)
		{
			c := miniContinuum()
			env := c.Env()
			st, err := c.RunDAG(d, placement.HEFT(env, d), env, Options{})
			if err != nil {
				t.Fatal(err)
			}
			heftTot += st.Makespan
		}
		{
			c := miniContinuum()
			env := c.Env()
			st, err := c.RunDAG(d, placement.ListRandom(env, d, rng.Split()), env, Options{})
			if err != nil {
				t.Fatal(err)
			}
			randTot += st.Makespan
		}
	}
	if heftTot > randTot*1.05 {
		t.Fatalf("HEFT measured %v worse than random %v", heftTot, randTot)
	}
}

func TestRunDAGRejectsIncompleteSchedule(t *testing.T) {
	c := miniContinuum()
	d := task.NewDAG("x")
	d.AddTask("a", 1e9, 0)
	_, err := c.RunDAG(d, placement.Schedule{Assign: map[task.ID]int{}}, c.Env(), Options{})
	if err == nil {
		t.Fatal("incomplete schedule accepted")
	}
}

func TestRunDAGWithFabricInputs(t *testing.T) {
	c := miniContinuum()
	enableFabric(c, workload.NewRNG(4), 2e9, data.LRU)
	ds := data.Dataset{Name: "raw", Bytes: 1.25e9} // 1s over WAN
	c.Fabric.Pin(ds, c.Nodes[1].ID)
	d := task.NewDAG("staged")
	d.Add(&task.Task{
		Name: "crunch", ScalarWork: 2.5e9,
		Inputs: []task.DataRef{{Name: "raw", Bytes: ds.Bytes}},
	})
	sched := placement.Schedule{Assign: map[task.ID]int{0: 0}} // on gateway
	st, err := c.RunDAG(d, sched, c.Env(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1.25GB to the gateway (~1.02s) + exec 1s.
	if st.Makespan < 1.5 || st.Makespan > 2.5 {
		t.Fatalf("makespan = %v, want ~2.02", st.Makespan)
	}
	if !c.Fabric.Holds(c.Nodes[0].ID, "raw") {
		t.Fatal("input not cached at gateway after staging")
	}
}

func TestTotalJoulesGrowsWithTime(t *testing.T) {
	c := miniContinuum()
	c.K.RunUntil(10)
	j1 := c.TotalJoules()
	c.K.RunUntil(20)
	j2 := c.TotalJoules()
	if j2 <= j1 || j1 <= 0 {
		t.Fatalf("energy not increasing: %v then %v", j1, j2)
	}
}
