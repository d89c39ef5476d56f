package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"continuum/internal/core"
	"continuum/internal/faas"
	"continuum/internal/metrics"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/sim"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// Ablations returns the design-choice studies indexed in DESIGN.md. They
// are not paper tables; they justify implementation decisions.
func Ablations() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"A1", AblationEventQueue},
		{"A2", AblationFairShare},
		{"A3", AblationHEFTRank},
		{"A4", AblationBatchSize},
		{"A5", AblationBagHeuristics},
	}
}

// sortedListKernel is the strawman scheduler: events kept in a sorted
// slice with O(n) insertion. It exists only to quantify what the binary
// heap buys.
type sortedListKernel struct {
	now    float64
	events []struct {
		t  float64
		fn func()
	}
}

func (k *sortedListKernel) after(d float64, fn func()) {
	t := k.now + d
	i := sort.Search(len(k.events), func(i int) bool { return k.events[i].t > t })
	k.events = append(k.events, struct {
		t  float64
		fn func()
	}{})
	copy(k.events[i+1:], k.events[i:])
	k.events[i] = struct {
		t  float64
		fn func()
	}{t, fn}
}

func (k *sortedListKernel) run() int {
	n := 0
	for len(k.events) > 0 {
		e := k.events[0]
		k.events = k.events[1:]
		k.now = e.t
		e.fn()
		n++
	}
	return n
}

// heapChurn drives the binary-heap kernel with a self-rescheduling
// workload of `chains` concurrent timers for `perChain` hops each — the
// access pattern simulations actually produce.
func heapChurn(chains, perChain int) time.Duration {
	k := sim.NewKernelQueue(sim.QueueHeap)
	rng := workload.NewRNG(1)
	start := time.Now()
	for c := 0; c < chains; c++ {
		var hop func()
		left := perChain
		gap := rng.Float64()
		hop = func() {
			left--
			if left > 0 {
				k.After(gap, hop)
			}
		}
		k.After(gap, hop)
	}
	k.Run()
	return time.Since(start)
}

func listChurn(chains, perChain int) time.Duration {
	k := &sortedListKernel{}
	rng := workload.NewRNG(1)
	start := time.Now()
	for c := 0; c < chains; c++ {
		var hop func()
		left := perChain
		gap := rng.Float64()
		hop = func() {
			left--
			if left > 0 {
				k.after(gap, hop)
			}
		}
		k.after(gap, hop)
	}
	k.run()
	return time.Since(start)
}

// AblationEventQueue quantifies the event-queue choice: binary heap vs
// sorted-slice insertion across growing pending-set sizes.
func AblationEventQueue(size Size) *Result {
	// The sweep deliberately spans the crossover: around 1k pending events
	// the sorted slice's memmove keeps pace with the heap's pointer
	// chasing; above it the O(n) insertion takes over.
	chainCounts := []int{1000, 10000, 30000}
	perChain := 20
	if size == Small {
		chainCounts = []int{1000, 10000}
		perChain = 10
	}
	tbl := metrics.NewTable(
		"A1 — event queue: binary heap vs sorted-slice insertion",
		"pending", "heap", "sorted_list", "speedup",
	)
	for _, chains := range chainCounts {
		h := heapChurn(chains, perChain)
		l := listChurn(chains, perChain)
		tbl.AddRow(
			fmt.Sprintf("%d", chains),
			h.Round(time.Microsecond).String(),
			l.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", float64(l)/float64(h)),
		)
	}
	return &Result{
		ID:    "A1",
		Title: "Ablation: event-queue data structure",
		Table: tbl,
		Notes: "Expected shape: the sorted slice keeps pace at ~1k pending events (memmove is cheap), then the heap's O(log n) insertion pulls ahead and the gap grows with the pending set.",
	}
}

// AblationFairShare quantifies what max-min fairness buys over naive
// equal-split: on the classic uneven-path scenario, equal split
// mis-allocates the fat link.
func AblationFairShare(Size) *Result {
	// Scenario from the netsim tests: X spans L1+L2, Y on L2 (1 MB/s),
	// Z on L1 (10 MB/s). Max-min: X=Y=0.5, Z=9.5 MB/s. Equal split
	// per-link: L2 gives 0.5 each (same), but L1 split equally gives
	// X=5, Z=5 — X cannot use 5 (L2 caps it at 0.5), so 4.5 MB/s of L1
	// is wasted.
	k := sim.NewKernelQueue(sim.QueueHeap)
	n := netsim.New(k, 3)
	n.AddLink(0, 1, 0, 1e7)
	n.AddLink(1, 2, 0, 1e6)
	fx := n.Transfer(0, 2, 1e9, nil)
	fy := n.Transfer(1, 2, 1e9, nil)
	fz := n.Transfer(0, 1, 1e9, nil)
	k.RunUntil(0.001)

	// Equal split, computed analytically for the same scenario.
	eqX := math.Min(1e7/2, 1e6/2)
	eqZ := 1e7 / 2
	eqY := 1e6 / 2
	wastedEq := 1e7 - (eqX + eqZ) // unused L1 capacity under equal split
	wastedMM := 1e7 - (fx.Rate() + fz.Rate())

	tbl := metrics.NewTable(
		"A2 — bandwidth sharing: max-min fair vs naive equal split",
		"flow", "maxmin_rate", "equal_split", "",
	)
	tbl.AddRow("X (2 hops)", fmt.Sprintf("%.2g B/s", fx.Rate()), fmt.Sprintf("%.2g B/s", eqX), "")
	tbl.AddRow("Y (thin link)", fmt.Sprintf("%.2g B/s", fy.Rate()), fmt.Sprintf("%.2g B/s", eqY), "")
	tbl.AddRow("Z (fat link)", fmt.Sprintf("%.2g B/s", fz.Rate()), fmt.Sprintf("%.2g B/s", eqZ), "")
	tbl.AddRow("wasted fat-link capacity", fmt.Sprintf("%.2g B/s", wastedMM), fmt.Sprintf("%.2g B/s", wastedEq), "")
	return &Result{
		ID:    "A2",
		Title: "Ablation: bandwidth-sharing model",
		Table: tbl,
		Notes: "Expected shape: max-min leaves ~0 fat-link capacity unused; equal split strands ~45% of it because the 2-hop flow cannot consume its nominal share.",
	}
}

// AblationHEFTRank isolates the value of HEFT's upward-rank ordering by
// comparing full HEFT against the identical list scheduler driven in plain
// topological order (greedy-EFT).
func AblationHEFTRank(size Size) *Result {
	trials := 20
	if size == Small {
		trials = 6
	}
	rng := workload.NewRNG(5)
	spec := task.GenSpec{MeanWork: 2e10, WorkSigma: 1.2, MeanBytes: 1e7, BytesSigma: 1.0}

	var heftSum, greedySum float64
	for i := 0; i < trials; i++ {
		d := task.RandomLayered(rng.Split(), 6, 8, 3, spec)
		// A tight environment (few cores everywhere) so priority order
		// matters: with a huge cloud every order collapses to the same
		// assignment and the ablation measures nothing.
		env := tightSchedEnv()
		heftSum += placement.HEFT(env, d).EstMakespan
		greedySum += placement.ListGreedy(env, d).EstMakespan
	}
	tbl := metrics.NewTable(
		"A3 — HEFT rank ablation: upward-rank order vs plain topological order",
		"scheduler", "mean_est_makespan", "vs_heft",
	)
	tbl.AddRow("heft", metrics.FormatDuration(heftSum/float64(trials)), "1.00x")
	tbl.AddRow("greedy-eft (no ranks)", metrics.FormatDuration(greedySum/float64(trials)),
		fmt.Sprintf("%.2fx", greedySum/heftSum))
	return &Result{
		ID:    "A3",
		Title: "Ablation: HEFT upward ranks",
		Table: tbl,
		Notes: "Expected shape: rank ordering prioritizes the critical path, so greedy-EFT without ranks is >= HEFT makespan on heterogeneous DAGs.",
	}
}

// tightSchedEnv is a core-constrained heterogeneous cluster where task
// priority ordering has real consequences.
func tightSchedEnv() *placement.Env {
	return tightSchedContinuum().Env()
}

// tightSchedContinuum builds the cluster; experiments needing both the
// continuum and the env call this and derive the env themselves.
func tightSchedContinuum() *core.Continuum {
	c := core.New()
	slow := c.AddNode(node.Spec{
		Name: "slow", Class: node.Fog, Cores: 2, CoreFlops: 1e9,
		MemBytes: 8 << 30, IdleWatts: 10, ActiveWattsCore: 4,
	})
	mid := c.AddNode(node.Spec{
		Name: "mid", Class: node.Campus, Cores: 2, CoreFlops: 3e9,
		MemBytes: 32 << 30, IdleWatts: 50, ActiveWattsCore: 8,
	})
	fast := c.AddNode(node.Spec{
		Name: "fast", Class: node.Cloud, Cores: 4, CoreFlops: 8e9,
		MemBytes: 64 << 30, IdleWatts: 100, ActiveWattsCore: 10,
	})
	c.Connect(slow.ID, mid.ID, 0.002, 1.25e8)
	c.Connect(mid.ID, fast.ID, 0.020, 1.25e9)
	c.Connect(slow.ID, fast.ID, 0.022, 1.25e9)
	return c
}

// AblationBagHeuristics compares independent-task (bag-of-tasks)
// scheduling heuristics on heterogeneous bags: Min-Min packs short tasks
// first, Max-Min protects against stragglers, Sufferage weighs the cost
// of losing a task's best machine. The interesting row is the
// heavy-tailed bag, where Min-Min's short-first bias leaves the giants
// stranded.
func AblationBagHeuristics(size Size) *Result {
	trials := 15
	bagSize := 60
	if size == Small {
		trials = 5
		bagSize = 24
	}
	rng := workload.NewRNG(17)

	bags := []struct {
		name string
		mk   func(r *workload.RNG) []*task.Task
	}{
		{"uniform", func(r *workload.RNG) []*task.Task {
			sz := workload.NewUniformSize(r, 1e9, 1e10)
			out := make([]*task.Task, bagSize)
			for i := range out {
				out[i] = &task.Task{Name: "t", ScalarWork: sz.Next()}
			}
			return out
		}},
		{"heavy-tail", func(r *workload.RNG) []*task.Task {
			sz := workload.NewParetoSize(r, 1e9, 1.3)
			out := make([]*task.Task, bagSize)
			for i := range out {
				out[i] = &task.Task{Name: "t", ScalarWork: sz.Next()}
			}
			return out
		}},
	}

	tbl := metrics.NewTable(
		"A5 — bag-of-tasks heuristics (mean est. makespan, normalized to min-min)",
		"bag", "min-min", "max-min", "sufferage", "random",
	)
	for _, bag := range bags {
		var mm, xm, sf, rd float64
		for i := 0; i < trials; i++ {
			env := tightSchedContinuum().Env()
			tasks := bag.mk(rng.Split())
			mm += placement.MinMin(env, 0, tasks).EstMakespan
			xm += placement.MaxMin(env, 0, tasks).EstMakespan
			sf += placement.Sufferage(env, 0, tasks).EstMakespan
			rd += placement.BatchRandom(env, 0, tasks, rng.Split().Intn).EstMakespan
		}
		tbl.AddRow(
			bag.name,
			"1.00x",
			fmt.Sprintf("%.2fx", xm/mm),
			fmt.Sprintf("%.2fx", sf/mm),
			fmt.Sprintf("%.2fx", rd/mm),
		)
	}
	return &Result{
		ID:    "A5",
		Title: "Ablation: independent-task scheduling heuristics",
		Table: tbl,
		Notes: "Expected shape: all heuristics well below random; on uniform bags the three are close; on heavy-tailed bags max-min/sufferage close the straggler gap min-min leaves.",
	}
}

// AblationBatchSize sweeps the FaaS batcher's max batch to locate the
// throughput/latency knee.
func AblationBatchSize(size Size) *Result {
	batches := []int{1, 4, 16, 64}
	calls := 512
	conc := 32
	if size == Small {
		batches = []int{1, 16}
		calls = 128
		conc = 8
	}
	tbl := metrics.NewTable(
		"A4 — FaaS batch-size sweep (cold endpoints, 2ms provisioning)",
		"max_batch", "calls/s", "mean_lat", "cold_starts",
	)
	for _, b := range batches {
		reg := f3Registry(100 * time.Microsecond)
		// Cold-heavy regime so batching has provisioning to amortize.
		ep := faas.NewEndpoint(faas.EndpointConfig{
			Name: "ep", Capacity: 4, ColdStart: 2 * time.Millisecond,
			WarmTTL: time.Nanosecond,
		}, reg)
		var inv faas.Invoker = ep
		var batcher *faas.Batcher
		if b > 1 {
			batcher = faas.NewBatcher(ep, b, time.Millisecond)
			inv = batcher
		}
		tput, lat := f3Drive(inv, conc, calls)
		if batcher != nil {
			batcher.Close()
		}
		tbl.AddRow(fmt.Sprintf("%d", b), fmt.Sprintf("%.0f", tput),
			lat.Round(time.Microsecond).String(), fmt.Sprintf("%d", ep.ColdStarts()))
	}
	return &Result{
		ID:    "A4",
		Title: "Ablation: batching threshold",
		Table: tbl,
		Notes: "Expected shape: throughput climbs with batch size while cold starts amortize (one per batch: cold_starts falls as batches grow), then flattens; latency grows with batch due to queueing for a full batch or the flush timer.",
	}
}
