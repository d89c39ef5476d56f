package continuum_test

import (
	"strings"
	"testing"

	"continuum/internal/core"
	"continuum/internal/data"
	"continuum/internal/fault"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/scenario"
	"continuum/internal/task"
	"continuum/internal/trace"
	"continuum/internal/workload"
)

// TestIntegrationScenarioDeterminism runs the same JSON scenario twice and
// requires bit-identical reports — the end-to-end reproducibility claim.
func TestIntegrationScenarioDeterminism(t *testing.T) {
	run := func() *scenario.Report {
		s := scenario.Example()
		s.Stream.Horizon = 10
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.MeanLat != b.MeanLat ||
		a.Joules != b.Joules || a.Dollars != b.Dollars {
		t.Fatalf("scenario not deterministic: %+v vs %+v", a, b)
	}
}

// TestIntegrationTracedWorkflow runs a HEFT-scheduled Montage DAG with
// tracing and checks the trace is consistent with the stats.
func TestIntegrationTracedWorkflow(t *testing.T) {
	c := core.New()
	nodeCatalogPair(c)
	tr := trace.New(0)
	c.Tracer = tr
	d := task.MontageLike(workload.NewRNG(1), 10, task.GenSpec{
		MeanWork: 1e10, WorkSigma: 0.5, MeanBytes: 1e6, BytesSigma: 0.5,
	})
	env := c.Env()
	st, err := c.RunDAG(d, placement.HEFT(env, d), env)
	if err != nil {
		t.Fatal(err)
	}
	if tasks := tr.Filter(trace.KindTask); int64(len(tasks)) != st.Completed {
		t.Fatalf("trace has %d task spans for %d completions", len(tasks), st.Completed)
	}
	if g := tr.Gantt(40); !strings.Contains(g, "#") {
		t.Fatal("gantt shows no activity")
	}
}

// nodeCatalogPair adds a gateway and a cloud to the continuum.
func nodeCatalogPair(c *core.Continuum) []int {
	cat := node.Catalog()
	gw := cat["gateway"]
	gw.Name = "gw"
	cl := cat["cloud"]
	cl.Name = "cloud"
	a := c.AddNode(gw)
	b := c.AddNode(cl)
	c.Connect(a.ID, b.ID, 0.020, 1.25e9)
	return []int{a.ID, b.ID}
}

// TestIntegrationFabricWorkflow stages external inputs through the data
// fabric during DAG execution and verifies caching kicked in.
func TestIntegrationFabricWorkflow(t *testing.T) {
	c := core.New()
	ids := nodeCatalogPair(c)
	c.Fabric = data.NewFabric(c.Net, workload.NewRNG(2))
	stores := map[int]*data.Store{}
	for _, n := range c.Nodes {
		stores[n.ID] = c.Fabric.AddStore(n.ID, 1e10, data.LRU)
	}
	shared := data.Dataset{Name: "calibration", Bytes: 2e8}
	c.Fabric.Pin(shared, ids[1]) // lives at the cloud

	// A fan of tasks all reading the same calibration dataset, pinned to
	// the gateway: the first stages it, the rest hit the cache.
	d := task.NewDAG("fan")
	for i := 0; i < 6; i++ {
		d.Add(&task.Task{
			Name: "t", ScalarWork: 1e9,
			Inputs: []task.DataRef{{Name: shared.Name, Bytes: shared.Bytes}},
		})
	}
	assign := map[task.ID]int{}
	for i := 0; i < d.N(); i++ {
		assign[task.ID(i)] = 0
	}
	st, err := c.RunDAG(d, placement.Schedule{Algorithm: "pin", Assign: assign}, c.Env())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 6 {
		t.Fatalf("completed %d", st.Completed)
	}
	// The six concurrent stages of one dataset must share work: either
	// coalesced into the in-flight transfer or served from cache.
	store := stores[ids[0]]
	if store.Hits == 0 && c.Fabric.Coalesced == 0 {
		t.Fatal("no sharing (hits or coalescing) across the shared-input fan")
	}
	// One physical transfer only (coalesced or cached).
	if c.Fabric.BytesMoved > shared.Bytes*1.5 {
		t.Fatalf("moved %v bytes for one %v dataset", c.Fabric.BytesMoved, shared.Bytes)
	}
}

// TestIntegrationFaultsPlusAdaptive combines failure injection with the
// learning policy: the adaptive router must keep succeeding while the
// flaky node misbehaves.
func TestIntegrationFaultsPlusAdaptive(t *testing.T) {
	c := core.New()
	ids := nodeCatalogPair(c)
	inj := fault.NewInjector(c.K, workload.NewRNG(3), 1e4)
	gwFault := inj.Attach("gw", fault.Spec{MeanUp: 1, MeanDown: 0.5})

	var jobs []core.StreamJob
	for i := 0; i < 60; i++ {
		jobs = append(jobs, core.StreamJob{
			Task:   &task.Task{Name: "t", ScalarWork: 2.5e8, OutputBytes: 64},
			Origin: ids[0],
			Submit: float64(i) * 0.2,
		})
	}
	st := c.RunStreamReliable(placement.NewAdaptive(0.05), jobs, nil, core.ReliableOptions{
		Faults:     map[int]*fault.Target{ids[0]: gwFault},
		MaxRetries: 10,
	})
	if st.SuccessRate() < 0.95 {
		t.Fatalf("success rate %v with a reliable cloud available", st.SuccessRate())
	}
	if st.Completed+st.Lost != 60 {
		t.Fatalf("accounting broken: %d + %d", st.Completed, st.Lost)
	}
}
