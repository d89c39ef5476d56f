package core

import (
	"bytes"
	"maps"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"continuum/internal/data"
	"continuum/internal/metrics"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/trace"
	"continuum/internal/workload"
)

// sameHist reports whether two histograms recorded the same
// distribution: equal count, mean and extrema, and the same bucket at
// every rank.
func sameHist(a, b *metrics.Histogram) bool {
	n := a.Count()
	if n != b.Count() || a.Mean() != b.Mean() ||
		a.Quantile(0) != b.Quantile(0) || a.Quantile(1) != b.Quantile(1) {
		return false
	}
	for i := int64(0); i < n; i++ {
		if q := (float64(i) + 0.5) / float64(n); a.Quantile(q) != b.Quantile(q) {
			return false
		}
	}
	return true
}

// traceSpans returns tr's spans in record order, read back through its
// span file.
func traceSpans(t *testing.T, tr *trace.Tracer) []*trace.Span {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := trace.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// statsEqual compares two Stats field for field, reporting the first
// mismatch through t.Errorf.
func statsEqual(t *testing.T, label string, a, b *Stats) bool {
	t.Helper()
	if !sameHist(a.Latency, b.Latency) {
		t.Errorf("%s: Latency histograms differ (mean %v vs %v, n %d vs %d)",
			label, a.Latency.Mean(), b.Latency.Mean(), a.Latency.Count(), b.Latency.Count())
		return false
	}
	if !maps.Equal(a.PerNode, b.PerNode) {
		t.Errorf("%s: PerNode %v vs %v", label, a.PerNode, b.PerNode)
		return false
	}
	ac, bc := *a, *b
	ac.Latency, ac.PerNode, bc.Latency, bc.PerNode = nil, nil, nil, nil
	if !reflect.DeepEqual(ac, bc) {
		t.Errorf("%s: %+v vs %+v", label, ac, bc)
		return false
	}
	return true
}

// seededJobs derives a random stream workload from one seed: job count,
// inter-arrival gaps, work sizes, and output bytes all come from the
// seed's PRNG stream.
func seededJobs(c *Continuum, seed uint64, withInputs bool) []StreamJob {
	rng := workload.NewRNG(seed)
	n := 5 + rng.Intn(25)
	var jobs []StreamJob
	t := 0.0
	for i := 0; i < n; i++ {
		t += 0.02 + rng.Float64()*0.3
		tk := &task.Task{
			Name:        "t",
			ScalarWork:  1e7 + rng.Float64()*5e8,
			OutputBytes: 10 + rng.Float64()*1e5,
		}
		if withInputs {
			tk.Inputs = []task.DataRef{{Name: "shared", Bytes: 1e6}}
		}
		jobs = append(jobs, StreamJob{Task: tk, Origin: c.Nodes[0].ID, Submit: t})
	}
	return jobs
}

// TestZeroFaultStreamEquivalence is the invariant the unified engine
// buys: with no faults, a stream run given a retry budget produces Stats
// identical, field for field, to a run with zero Options on the same
// seed — the budget is never spent, and nothing else moves.
func TestZeroFaultStreamEquivalence(t *testing.T) {
	prop := func(seed uint64) bool {
		c1 := miniContinuum()
		base := c1.RunStream(placement.GreedyLatency{}, seededJobs(c1, seed, false), nil, Options{})
		c2 := miniContinuum()
		rel := c2.RunStream(placement.GreedyLatency{}, seededJobs(c2, seed, false), nil, Options{MaxRetries: 3})
		return statsEqual(t, "stream", base, rel)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroFaultStreamEquivalenceWithFabric covers the staging branch of
// the pipeline: with a fabric enabled and inputs attached, runs with and
// without a retry budget must still match exactly (this is the drift the
// engine removed — the old reliable runner bypassed the fabric).
func TestZeroFaultStreamEquivalenceWithFabric(t *testing.T) {
	prop := func(seed uint64) bool {
		mk := func() *Continuum {
			c := miniContinuum()
			enableFabric(c, workload.NewRNG(7), 1e9, data.LRU)
			c.Fabric.Pin(data.Dataset{Name: "shared", Bytes: 1e6}, c.Nodes[1].ID)
			return c
		}
		c1 := mk()
		base := c1.RunStream(placement.GreedyLatency{}, seededJobs(c1, seed, true), nil, Options{})
		c2 := mk()
		rel := c2.RunStream(placement.GreedyLatency{}, seededJobs(c2, seed, true), nil,
			Options{MaxRetries: 3})
		return statsEqual(t, "stream+fabric", base, rel)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroFaultDAGEquivalence asserts the same invariant on the DAG
// path: with no faults, a retry budget leaves every Stats field as a
// run with zero Options has it.
func TestZeroFaultDAGEquivalence(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		d := task.RandomLayered(rng, 3, 5, 3, task.GenSpec{
			MeanWork: 3e9, WorkSigma: 0.8, MeanBytes: 1e5, BytesSigma: 0.5,
		})

		c1 := miniContinuum()
		env1 := c1.Env()
		base, err := c1.RunDAG(d, placement.HEFT(env1, d), env1, Options{})
		if err != nil {
			t.Errorf("seed %d: base DAG: %v", seed, err)
			return false
		}
		c2 := miniContinuum()
		env2 := c2.Env()
		rel, err := c2.RunDAG(d, placement.HEFT(env2, d), env2, Options{MaxRetries: 3})
		if err != nil {
			t.Errorf("seed %d: DAG with a retry budget: %v", seed, err)
			return false
		}
		return statsEqual(t, "dag", base, rel)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestReliableStreamStagesThroughFabric is the regression test for the
// pre-engine bug: the old reliable stream runner ignored c.Fabric and
// always shipped inputs from the origin, so edge caching had no effect
// on reliability runs. With the engine, a fabric hit at the executing
// node must remove the input transfer from the reliable run's latency.
func TestReliableStreamStagesThroughFabric(t *testing.T) {
	const inputBytes = 1.25e9 // ~1s over the 10 Gbit WAN link
	mkJobs := func(c *Continuum) []StreamJob {
		return []StreamJob{{
			Task: &task.Task{
				Name: "crunch", ScalarWork: 2.5e9, OutputBytes: 100,
				Inputs: []task.DataRef{{Name: "model", Bytes: inputBytes}},
			},
			Origin: c.Nodes[0].ID, // gateway
			Submit: 0,
		}}
	}

	// Without a fabric, the input ships gateway→cloud over the WAN.
	c1 := miniContinuum()
	shipped := c1.RunStream(placement.CloudOnly{}, mkJobs(c1), nil,
		Options{MaxRetries: 2})
	if shipped.Completed != 1 {
		t.Fatalf("shipped run completed %d", shipped.Completed)
	}

	// With a fabric and the model already resident at the cloud, staging
	// is a cache hit and the transfer disappears.
	c2 := miniContinuum()
	stores := enableFabric(c2, workload.NewRNG(1), 2e9, data.LRU)
	c2.Fabric.Pin(data.Dataset{Name: "model", Bytes: inputBytes}, c2.Nodes[1].ID)
	cached := c2.RunStream(placement.CloudOnly{}, mkJobs(c2), nil,
		Options{MaxRetries: 2})
	if cached.Completed != 1 {
		t.Fatalf("cached run completed %d", cached.Completed)
	}
	if stores[c2.Nodes[1].ID].Hits == 0 {
		t.Fatal("reliable run did not consult the fabric (no cache hit recorded)")
	}
	if gain := shipped.Latency.Mean() - cached.Latency.Mean(); gain < 0.5 {
		t.Fatalf("fabric hit saved only %vs of reliable-run latency (shipped %v, cached %v)",
			gain, shipped.Latency.Mean(), cached.Latency.Mean())
	}
}

// TestReliableTraceParity asserts reliable runs emit the same span kinds
// as base runs — the second half of the pre-engine drift (the old
// reliable runners recorded nothing, or skipped transfer records).
func TestReliableTraceParity(t *testing.T) {
	kindCounts := func(tr *trace.Tracer) map[trace.SpanKind]int {
		out := map[trace.SpanKind]int{}
		for _, sp := range traceSpans(t, tr) {
			out[sp.Kind]++
		}
		return out
	}

	// Stream: one task span per job.
	c1 := miniContinuum()
	c1.Tracer = trace.New(0)
	c1.RunStream(placement.GreedyLatency{}, seededJobs(c1, 11, false), nil, Options{})
	c2 := miniContinuum()
	c2.Tracer = trace.New(0)
	c2.RunStream(placement.GreedyLatency{}, seededJobs(c2, 11, false), nil,
		Options{MaxRetries: 3})
	base, rel := kindCounts(c1.Tracer), kindCounts(c2.Tracer)
	if len(base) == 0 || base[trace.KindTask] == 0 {
		t.Fatal("base stream run recorded no task spans")
	}
	for k, n := range base {
		if rel[k] != n {
			t.Fatalf("stream trace drift: kind %s base %d reliable %d", k, n, rel[k])
		}
	}

	// DAG with cross-node edges: task spans plus transfer spans.
	d := task.NewDAG("x")
	d.AddTask("a", 2.5e9, 1e6)
	d.AddTask("b", 2.5e9, 1e3)
	d.Connect(0, 1, -1)
	sched := placement.Schedule{Algorithm: "manual", Assign: map[task.ID]int{0: 0, 1: 1}}
	c3 := miniContinuum()
	c3.Tracer = trace.New(0)
	if _, err := c3.RunDAG(d, sched, c3.Env(), Options{}); err != nil {
		t.Fatal(err)
	}
	c4 := miniContinuum()
	c4.Tracer = trace.New(0)
	if _, err := c4.RunDAG(d, sched, c4.Env(), Options{MaxRetries: 3}); err != nil {
		t.Fatal(err)
	}
	base, rel = kindCounts(c3.Tracer), kindCounts(c4.Tracer)
	if base[trace.KindTransfer] == 0 {
		t.Fatal("base DAG run recorded no transfer span for a cross-node edge")
	}
	for k, n := range base {
		if rel[k] != n {
			t.Fatalf("DAG trace drift: kind %s base %d reliable %d", k, n, rel[k])
		}
	}
}

// TestDAGLatencyIsReadyToFinish pins the fixed Stats.Latency semantics:
// each DAG task's sample is ready→finish, not its absolute completion
// time. In a two-task 1s+1s chain on one node both tasks wait ~0s after
// becoming ready and run for 1s, so the mean must be ~1.0 (the old
// absolute-time accounting would report 1.5).
func TestDAGLatencyIsReadyToFinish(t *testing.T) {
	c := miniContinuum()
	d := task.NewDAG("chain")
	d.AddTask("a", 2.5e9, 1e3) // 1s on the gateway core
	d.AddTask("b", 2.5e9, 1e3)
	d.Connect(0, 1, -1)
	sched := placement.Schedule{Algorithm: "manual", Assign: map[task.ID]int{0: 0, 1: 0}}
	st, err := c.RunDAG(d, sched, c.Env(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Latency.Count() != 2 {
		t.Fatalf("latency samples = %d, want 2", st.Latency.Count())
	}
	if math.Abs(st.Latency.Mean()-1.0) > 1e-6 {
		t.Fatalf("mean task latency = %v, want ~1.0 (ready→finish)", st.Latency.Mean())
	}
	if math.Abs(st.Latency.Quantile(1)-1.0) > 1e-6 {
		t.Fatalf("max task latency = %v, want ~1.0", st.Latency.Quantile(1))
	}
	if math.Abs(st.Makespan-2.0) > 1e-9 {
		t.Fatalf("makespan = %v, want 2.0", st.Makespan)
	}
}

// TestDAGTaskAllocations counts what one DAG task allocates on the
// engine's untraced, fault-free path: a chain of tasks, each also
// feeding the task two ahead, all pinned to one node so every edge is a
// local arrival. The DAG and its schedule are built once, outside the
// count; the per-task count is the difference between a 400-task and a
// 200-task run, over 200. Walking a task's successor edges must not
// allocate: the DAG hands out its own grouped edges.
func TestDAGTaskAllocations(t *testing.T) {
	run := func(tasks int) func() {
		d := task.NewDAG("ladder")
		sched := placement.Schedule{Algorithm: "manual", Assign: map[task.ID]int{}}
		for i := 0; i < tasks; i++ {
			d.AddTask("t", 1e8, 128)
			sched.Assign[task.ID(i)] = 0
		}
		for i := 0; i+1 < tasks; i++ {
			d.Connect(task.ID(i), task.ID(i+1), -1)
			if i+2 < tasks {
				d.Connect(task.ID(i), task.ID(i+2), -1)
			}
		}
		return func() {
			cat := node.Catalog()
			c := New()
			a := c.AddNode(cat["gateway"])
			c.AddNode(cat["cloud"])
			c.Connect(a.ID, a.ID+1, 0.020, 1.25e9)
			st, err := c.RunDAG(d, sched, c.Env(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Completed != int64(tasks) {
				t.Fatalf("%d of %d tasks completed", st.Completed, tasks)
			}
		}
	}
	perTask := (testing.AllocsPerRun(5, run(400)) - testing.AllocsPerRun(5, run(200))) / 200
	// The staging, execution-start, execution-end and executed
	// callbacks; the successor edges cost nothing (≈ 5 before). The
	// fraction over whole allocations is storage that grows with the run
	// (the topological order, the kernel's calendar).
	const max = 4
	t.Logf("%.2f allocations per DAG task", perTask)
	if math.Round(perTask) > max {
		t.Fatalf("a DAG task allocates %.2f times, want ≤ %d", perTask, max)
	}
}

// TestStreamJobAllocations counts what one stream job allocates on the
// engine's untraced, fault-free path: BenchmarkEngineOverhead's two-node
// RunStream, each job with a Task of its own. The per-job count is the
// difference between a run of 400 jobs and one of 200, so the fixed cost
// of building the continuum cancels out. It counts allocations, not
// time: a new closure or record per job shows up here whatever the host.
func TestStreamJobAllocations(t *testing.T) {
	run := func(jobs int) func() {
		return func() {
			cat := node.Catalog()
			c := New()
			a := c.AddNode(cat["gateway"])
			d := c.AddNode(cat["cloud"])
			c.Connect(a.ID, d.ID, 0.020, 1.25e9)
			js := make([]StreamJob, jobs)
			for i := range js {
				js[i] = StreamJob{
					Task:   &task.Task{Name: "t", ScalarWork: 1e8, OutputBytes: 128},
					Origin: a.ID,
					Submit: float64(i) * 0.01,
				}
			}
			if st := c.RunStream(placement.GreedyLatency{}, js, nil, Options{}); st.Completed != int64(jobs) {
				t.Fatalf("%d of %d jobs completed", st.Completed, jobs)
			}
		}
	}
	perJob := (testing.AllocsPerRun(5, run(400)) - testing.AllocsPerRun(5, run(200))) / 200
	// The job's Task, its submit event, the staging, execution-start,
	// execution-end and executed callbacks, and the reply callback. The
	// fraction over whole allocations is storage that grows with the run
	// (the kernel's calendar, the histogram).
	const max = 7
	t.Logf("%.2f allocations per stream job", perJob)
	if math.Round(perJob) > max {
		t.Fatalf("a stream job allocates %.2f times, want ≤ %d", perJob, max)
	}
}
