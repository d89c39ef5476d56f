// Package continuum_test holds the benchmark harness: one testing.B per
// reconstructed table/figure (regenerating it at Small size each
// iteration) plus the design-choice ablations and substrate
// microbenchmarks. Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-size tables come from `continuum-sim experiments`.
package continuum_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"continuum/internal/core"
	"continuum/internal/experiments"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/scenario"
	"continuum/internal/sim"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// Experiment benches: each iteration regenerates the table/figure.

func benchExperiment(b *testing.B, run experiments.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := run(experiments.Small)
		if strings.Count(res.Table.CSV(), "\n") < 2 { // the header line alone
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkF1GilderCrossover regenerates F1 (Gilder crossover).
func BenchmarkF1GilderCrossover(b *testing.B) { benchExperiment(b, experiments.F1Gilder) }

// BenchmarkT1PlacementPolicies regenerates T1 (where should I compute).
func BenchmarkT1PlacementPolicies(b *testing.B) { benchExperiment(b, experiments.T1Placement) }

// BenchmarkF2DAGSched regenerates F2 (workflow scheduling).
func BenchmarkF2DAGSched(b *testing.B) { benchExperiment(b, experiments.F2DAGSched) }

// BenchmarkF3FaaS regenerates F3 (federated function serving, wall clock).
func BenchmarkF3FaaS(b *testing.B) { benchExperiment(b, experiments.F3FaaS) }

// BenchmarkT2DataFabric regenerates T2 (edge caching).
func BenchmarkT2DataFabric(b *testing.B) { benchExperiment(b, experiments.T2DataFabric) }

// BenchmarkF4ApplianceSweep regenerates F4 (specialization design space).
func BenchmarkF4ApplianceSweep(b *testing.B) { benchExperiment(b, experiments.F4ApplianceSweep) }

// BenchmarkT3FacilityPlacement regenerates T3 (where should I place my computers).
func BenchmarkT3FacilityPlacement(b *testing.B) { benchExperiment(b, experiments.T3Facility) }

// BenchmarkF5SimScaling regenerates F5 (simulator scaling).
func BenchmarkF5SimScaling(b *testing.B) { benchExperiment(b, experiments.F5SimScaling) }

// BenchmarkT4Pareto regenerates T4 (multi-objective Pareto surface).
func BenchmarkT4Pareto(b *testing.B) { benchExperiment(b, experiments.T4Pareto) }

// BenchmarkF6LightWall regenerates F6 (speed-of-light wall).
func BenchmarkF6LightWall(b *testing.B) { benchExperiment(b, experiments.F6LightWall) }

// BenchmarkF7Reliability regenerates F7 (placement under edge failures).
func BenchmarkF7Reliability(b *testing.B) { benchExperiment(b, experiments.F7Reliability) }

// BenchmarkT5Adaptive regenerates T5 (measurement vs model placement).
func BenchmarkT5Adaptive(b *testing.B) { benchExperiment(b, experiments.T5Adaptive) }

// BenchmarkF8Elasticity regenerates F8 (serverless elasticity).
func BenchmarkF8Elasticity(b *testing.B) { benchExperiment(b, experiments.F8Elasticity) }

// BenchmarkF9Routing regenerates F9 (serverless routing under skew).
func BenchmarkF9Routing(b *testing.B) { benchExperiment(b, experiments.F9Routing) }

// BenchmarkF10Workflow regenerates F10 (workflows under failures).
func BenchmarkF10Workflow(b *testing.B) { benchExperiment(b, experiments.F10Workflow) }

// BenchmarkF11Speculation regenerates F11 (hedging the tail).
func BenchmarkF11Speculation(b *testing.B) { benchExperiment(b, experiments.F11Speculation) }

// Ablation benches.

// BenchmarkAblationEventQueue regenerates A1 (heap vs sorted list).
func BenchmarkAblationEventQueue(b *testing.B) { benchExperiment(b, experiments.AblationEventQueue) }

// BenchmarkAblationFairShare regenerates A2 (max-min vs equal split).
func BenchmarkAblationFairShare(b *testing.B) { benchExperiment(b, experiments.AblationFairShare) }

// BenchmarkAblationHEFTRank regenerates A3 (upward ranks vs topo order).
func BenchmarkAblationHEFTRank(b *testing.B) { benchExperiment(b, experiments.AblationHEFTRank) }

// BenchmarkAblationBatchSize regenerates A4 (batching threshold sweep).
func BenchmarkAblationBatchSize(b *testing.B) { benchExperiment(b, experiments.AblationBatchSize) }

// BenchmarkAblationBagHeuristics regenerates A5 (bag-of-tasks heuristics).
func BenchmarkAblationBagHeuristics(b *testing.B) {
	benchExperiment(b, experiments.AblationBagHeuristics)
}

// BenchmarkMinMin50 measures batch-scheduling a 50-task bag.
func BenchmarkMinMin50(b *testing.B) {
	env := benchEnv()
	rng := workload.NewRNG(9)
	sizes := workload.NewLognormalSize(rng, 22.5, 1.0)
	tasks := make([]*task.Task, 50)
	for i := range tasks {
		tasks[i] = &task.Task{Name: "t", ScalarWork: sizes.Next()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := placement.MinMin(env, 0, tasks); len(s.Assign) != 50 {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkEngineOverhead guards the cost of the unified execution
// engine (internal/core/engine.go) on the event hot path: each iteration
// drives 200 stream jobs through the full stage→execute→account→deliver
// pipeline on a two-node continuum, with zero Options: the fault hooks
// are disarmed, so what it measures is the dispatch loop every
// experiment's inner iteration pays.
func BenchmarkEngineOverhead(b *testing.B) {
	cat := node.Catalog()
	mk := func() (*core.Continuum, []core.StreamJob) {
		gw := cat["gateway"]
		gw.Name = "gw"
		cl := cat["cloud"]
		cl.Name = "cloud"
		c := core.New()
		a := c.AddNode(gw)
		d := c.AddNode(cl)
		c.Connect(a.ID, d.ID, 0.020, 1.25e9)
		jobs := make([]core.StreamJob, 200)
		for i := range jobs {
			jobs[i] = core.StreamJob{
				Task:   &task.Task{Name: "t", ScalarWork: 1e8, OutputBytes: 128},
				Origin: a.ID,
				Submit: float64(i) * 0.01,
			}
		}
		return c, jobs
	}
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, jobs := mk()
			if st := c.RunStream(placement.GreedyLatency{}, jobs, nil, core.Options{}); st.Completed != 200 {
				b.Fatal("jobs lost")
			}
		}
	})
}

// BenchmarkStressScenarioRun is the sim-stress workload's run, in
// process: the generated 1000-node stress scenario (64 origins at 8
// arrivals/s for 8 scenario seconds, seed 1) through Scenario.Run, the
// whole simulated stack at once. Besides B/op and allocs/op it reports
// gc/op, the collections a run drives; each run builds its continuum
// afresh, so what one run leaves behind is garbage the next collects.
func BenchmarkStressScenarioRun(b *testing.B) {
	s := scenario.GenerateStress(scenario.StressSpec{Nodes: 1000, Origins: 64, Rate: 8, Horizon: 8, Seed: 1})
	if err := s.Validate(); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(); err != nil { // warm the shared stores
		b.Fatal(err)
	}
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if r.Completed == 0 {
			b.Fatal("no task completed")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.NumGC-m0.NumGC)/float64(b.N), "gc/op")
}

// Substrate microbenchmarks.

// BenchmarkKernelEventThroughput measures raw DES event dispatch.
func BenchmarkKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel()
	left := b.N
	var hop func()
	hop = func() {
		left--
		if left > 0 {
			k.After(1, hop)
		}
	}
	k.After(1, hop)
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelManyPending measures dispatch with a large pending set.
func BenchmarkKernelManyPending(b *testing.B) {
	rng := workload.NewRNG(1)
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		for j := 0; j < 10000; j++ {
			k.At(rng.Float64(), func() {})
		}
		k.Run()
	}
}

// BenchmarkKernelSteadyState measures the schedule+fire cycle at a held
// queue population: every fired event reschedules itself, so each
// iteration is exactly one insert and one extract-min at that depth.
// Run with -benchmem: the steady-state path must report 0 allocs/op.
func BenchmarkKernelSteadyState(b *testing.B) {
	for _, pending := range []int{1000, 100000, 1000000} {
		for _, kind := range []struct {
			name string
			k    sim.QueueKind
		}{{"calendar", sim.QueueCalendar}, {"heap", sim.QueueHeap}} {
			b.Run(fmt.Sprintf("%s/pending=%d", kind.name, pending), func(b *testing.B) {
				k := sim.NewKernelQueue(kind.k)
				rng := workload.NewRNG(5)
				fired, quota := 0, 0
				var hop func()
				hop = func() {
					k.After(rng.Float64(), hop)
					fired++
					if fired >= quota {
						k.Stop()
					}
				}
				for i := 0; i < pending; i++ {
					k.After(rng.Float64(), hop)
				}
				quota = pending // warm one full turnover of the population
				k.Run()
				fired, quota = 0, b.N
				b.ReportAllocs()
				b.ResetTimer()
				k.Run()
			})
		}
	}
}

// BenchmarkKernelFill is the sim-kernel workload's set-up, in process:
// fill a fresh calendar kernel with 1 M self-rescheduling hold-model
// events (uniform [0,1) gaps), then fire a warm-up tenth of them. Besides
// B/op and allocs/op it reports peak-heap-MB, the largest heap in use
// (MemStats.HeapAlloc) read at the end of a fill or a warm-up: the
// kernel then holds its whole population. The kernel never drains, so
// it parks nothing and each iteration's fill starts from empty storage.
func BenchmarkKernelFill(b *testing.B) {
	const pending = 1_000_000
	b.ReportAllocs()
	var peak uint64
	var ms runtime.MemStats
	sample := func() {
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC() // the previous population is garbage; collect it outside the timing
		b.StartTimer()
		k := sim.NewKernel()
		rng := workload.NewRNG(1)
		fired := 0
		var hop func()
		hop = func() {
			k.After(rng.Float64(), hop)
			if fired++; fired == pending/10 {
				k.Stop()
			}
		}
		for j := 0; j < pending; j++ {
			k.After(rng.Float64(), hop)
		}
		b.StopTimer()
		sample()
		b.StartTimer()
		k.Run()
		b.StopTimer()
		sample()
		if k.Pending() != pending || fired != pending/10 {
			b.Fatalf("pending %d, fired %d", k.Pending(), fired)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
}

// BenchmarkNetsimMessage measures analytic small-message delivery.
func BenchmarkNetsimMessage(b *testing.B) {
	k := sim.NewKernel()
	net, _, leaves := netsim.Star(k, netsim.StarSpec{Leaves: 64, LeafLatency: 0.001, LeafCapacity: 1e9})
	rng := workload.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Message(leaves[rng.Intn(64)], leaves[rng.Intn(64)], 1e3, func() {})
		if i%1024 == 0 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkNetsimFlowReallocate measures max-min reallocation with many
// concurrent flows on a shared bottleneck.
func BenchmarkNetsimFlowReallocate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		net, _, leaves := netsim.Star(k, netsim.StarSpec{Leaves: 32, LeafLatency: 0.001, LeafCapacity: 1e6})
		done := 0
		for f := 0; f < 64; f++ {
			net.Transfer(leaves[f%32], leaves[(f+1)%32], 1e5, func(*netsim.Flow) { done++ })
		}
		k.Run()
		if done != 64 {
			b.Fatal("flows lost")
		}
	}
}

// BenchmarkHEFT50 measures scheduling a 50-task DAG.
func BenchmarkHEFT50(b *testing.B) {
	d := task.RandomLayered(workload.NewRNG(3), 5, 12, 3, task.GenSpec{
		MeanWork: 1e10, WorkSigma: 1, MeanBytes: 1e6, BytesSigma: 1,
	})
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := placement.HEFT(env, d)
		if len(s.Assign) != d.N() {
			b.Fatal("incomplete schedule")
		}
	}
}

// BenchmarkGreedyLatencySelect measures one online placement decision.
func BenchmarkGreedyLatencySelect(b *testing.B) {
	env := benchEnv()
	pol := placement.GreedyLatency{}
	req := placement.Request{
		Task:   &task.Task{Name: "t", ScalarWork: 1e9, OutputBytes: 128},
		Origin: 0,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pol.Select(env, req) == nil {
			b.Fatal("nil selection")
		}
	}
}

// BenchmarkRNG measures the deterministic PRNG.
func BenchmarkRNG(b *testing.B) {
	rng := workload.NewRNG(4)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= rng.Uint64()
	}
	_ = sink
}

// benchEnv builds the shared 3-node heterogeneous placement environment.
func benchEnv() *placement.Env {
	k := sim.NewKernel()
	net := netsim.New(k, 3)
	net.AddDuplexLink(0, 1, 0.002, 1.25e8)
	net.AddDuplexLink(1, 2, 0.020, 1.25e9)
	net.AddDuplexLink(0, 2, 0.022, 1.25e9)
	mk := func(id int, name string, class node.Class, cores int, flops float64) *node.Node {
		return node.New(k, id, node.Spec{
			Name: name, Class: class, Cores: cores, CoreFlops: flops,
			MemBytes: 1 << 32, IdleWatts: 10, ActiveWattsCore: 5,
		})
	}
	return &placement.Env{Net: net, Nodes: []*node.Node{
		mk(0, "edge", node.Gateway, 4, 1e9),
		mk(1, "campus", node.Campus, 16, 3e9),
		mk(2, "cloud", node.Cloud, 64, 8e9),
	}}
}
