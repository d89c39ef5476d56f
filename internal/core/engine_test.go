package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"continuum/internal/data"
	"continuum/internal/metrics"
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

// statsEqual compares two Stats field-for-field, reporting the first
// mismatch through t.Errorf.
func statsEqual(t *testing.T, label string, a, b *Stats) bool {
	t.Helper()
	ok := true
	if a.Completed != b.Completed {
		t.Errorf("%s: Completed %d vs %d", label, a.Completed, b.Completed)
		ok = false
	}
	if !sameHist(a.Latency, b.Latency) {
		t.Errorf("%s: Latency histograms differ (mean %v vs %v, n %d vs %d)",
			label, a.Latency.Mean(), b.Latency.Mean(), a.Latency.Count(), b.Latency.Count())
		ok = false
	}
	if a.Joules != b.Joules {
		t.Errorf("%s: Joules %v vs %v", label, a.Joules, b.Joules)
		ok = false
	}
	if a.Dollars != b.Dollars {
		t.Errorf("%s: Dollars %v vs %v", label, a.Dollars, b.Dollars)
		ok = false
	}
	if a.EgressB != b.EgressB {
		t.Errorf("%s: EgressB %v vs %v", label, a.EgressB, b.EgressB)
		ok = false
	}
	if a.Makespan != b.Makespan {
		t.Errorf("%s: Makespan %v vs %v", label, a.Makespan, b.Makespan)
		ok = false
	}
	if len(a.PerNode) != len(b.PerNode) {
		t.Errorf("%s: PerNode %v vs %v", label, a.PerNode, b.PerNode)
		ok = false
	} else {
		for name, n := range a.PerNode {
			if b.PerNode[name] != n {
				t.Errorf("%s: PerNode[%s] %d vs %d", label, name, n, b.PerNode[name])
				ok = false
			}
		}
	}
	return ok
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
// buys: a reliable stream run with zero-value ReliableOptions produces
// Stats identical, field-for-field, to the base runner on the same seed.
func TestZeroFaultStreamEquivalence(t *testing.T) {
	prop := func(seed uint64) bool {
		c1 := miniContinuum()
		base := c1.RunStream(placement.GreedyLatency{}, seededJobs(c1, seed, false), nil)

		c2 := miniContinuum()
		rel := c2.RunStreamReliable(placement.GreedyLatency{}, seededJobs(c2, seed, false), nil,
			ReliableOptions{})

		if rel.Retries != 0 || rel.Lost != 0 {
			t.Errorf("seed %d: zero-fault run retried (%d) or lost (%d)", seed, rel.Retries, rel.Lost)
			return false
		}
		return statsEqual(t, "stream", base, rel.Stats)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroFaultStreamEquivalenceWithFabric covers the staging branch of
// the pipeline: with a fabric enabled and inputs attached, base and
// zero-fault reliable runs must still match exactly (this is the drift
// the engine removed — the old reliable runner bypassed the fabric).
func TestZeroFaultStreamEquivalenceWithFabric(t *testing.T) {
	prop := func(seed uint64) bool {
		mk := func() *Continuum {
			c := miniContinuum()
			enableFabric(c, workload.NewRNG(7), 1e9, data.LRU)
			c.Fabric.Pin(data.Dataset{Name: "shared", Bytes: 1e6}, c.Nodes[1].ID)
			return c
		}
		c1 := mk()
		base := c1.RunStream(placement.GreedyLatency{}, seededJobs(c1, seed, true), nil)
		c2 := mk()
		rel := c2.RunStreamReliable(placement.GreedyLatency{}, seededJobs(c2, seed, true), nil,
			ReliableOptions{MaxRetries: 3})
		if rel.Retries != 0 || rel.Lost != 0 {
			t.Errorf("seed %d: zero-fault fabric run retried or lost", seed)
			return false
		}
		return statsEqual(t, "stream+fabric", base, rel.Stats)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroFaultDAGEquivalence asserts the same invariant on the DAG
// path: RunDAGReliable with empty Faults reproduces RunDAG field-for-field.
func TestZeroFaultDAGEquivalence(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		d := task.RandomLayered(rng, 3, 5, 3, task.GenSpec{
			MeanWork: 3e9, WorkSigma: 0.8, MeanBytes: 1e5, BytesSigma: 0.5,
		})

		c1 := miniContinuum()
		env1 := c1.Env()
		base, err := c1.RunDAG(d, placement.HEFT(env1, d), env1)
		if err != nil {
			t.Errorf("seed %d: base DAG: %v", seed, err)
			return false
		}
		c2 := miniContinuum()
		env2 := c2.Env()
		rel, err := c2.RunDAGReliable(d, placement.HEFT(env2, d), env2, ReliableOptions{})
		if err != nil {
			t.Errorf("seed %d: reliable DAG: %v", seed, err)
			return false
		}
		if rel.Retries != 0 || rel.Lost != 0 {
			t.Errorf("seed %d: zero-fault DAG retried or lost", seed)
			return false
		}
		return statsEqual(t, "dag", base, rel.Stats)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestReliableStreamStagesThroughFabric is the regression test for the
// pre-engine bug: RunStreamReliable ignored c.Fabric and always shipped
// inputs from the origin, so edge caching had no effect on reliability
// runs. With the engine, a fabric hit at the executing node must remove
// the input transfer from the reliable run's latency.
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
	shipped := c1.RunStreamReliable(placement.CloudOnly{}, mkJobs(c1), nil,
		ReliableOptions{MaxRetries: 2})
	if shipped.Completed != 1 {
		t.Fatalf("shipped run completed %d", shipped.Completed)
	}

	// With a fabric and the model already resident at the cloud, staging
	// is a cache hit and the transfer disappears.
	c2 := miniContinuum()
	stores := enableFabric(c2, workload.NewRNG(1), 2e9, data.LRU)
	c2.Fabric.Pin(data.Dataset{Name: "model", Bytes: inputBytes}, c2.Nodes[1].ID)
	cached := c2.RunStreamReliable(placement.CloudOnly{}, mkJobs(c2), nil,
		ReliableOptions{MaxRetries: 2})
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
	c1.RunStream(placement.GreedyLatency{}, seededJobs(c1, 11, false), nil)
	c2 := miniContinuum()
	c2.Tracer = trace.New(0)
	c2.RunStreamReliable(placement.GreedyLatency{}, seededJobs(c2, 11, false), nil,
		ReliableOptions{MaxRetries: 3})
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
	if _, err := c3.RunDAG(d, sched, c3.Env()); err != nil {
		t.Fatal(err)
	}
	c4 := miniContinuum()
	c4.Tracer = trace.New(0)
	if _, err := c4.RunDAGReliable(d, sched, c4.Env(), ReliableOptions{MaxRetries: 3}); err != nil {
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
	st, err := c.RunDAG(d, sched, c.Env())
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
