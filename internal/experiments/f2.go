package experiments

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/metrics"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// F2DAGSched measures workflow makespan across schedulers and DAG scales
// on a heterogeneous continuum, executed under the full network-contention
// model (not the scheduler's own estimate).
func F2DAGSched(size Size) *Result {
	sizes := []int{10, 25, 50}
	if size == Small {
		sizes = []int{10, 25}
	}
	algos := []struct {
		name string
		run  func(env *placement.Env, d *task.DAG, rng *workload.RNG) placement.Schedule
	}{
		{"heft", func(env *placement.Env, d *task.DAG, _ *workload.RNG) placement.Schedule {
			return placement.HEFT(env, d)
		}},
		{"cpop", func(env *placement.Env, d *task.DAG, _ *workload.RNG) placement.Schedule {
			return placement.CPOP(env, d)
		}},
		{"greedy-eft", func(env *placement.Env, d *task.DAG, _ *workload.RNG) placement.Schedule {
			return placement.ListGreedy(env, d)
		}},
		{"round-robin", func(env *placement.Env, d *task.DAG, _ *workload.RNG) placement.Schedule {
			return placement.ListRoundRobin(env, d)
		}},
		{"random", func(env *placement.Env, d *task.DAG, rng *workload.RNG) placement.Schedule {
			return placement.ListRandom(env, d, rng)
		}},
	}

	tbl := metrics.NewTable(
		"F2 — workflow makespan by scheduler (measured in full simulation)",
		"dag", "tasks", "scheduler", "makespan", "vs_heft",
	)

	spec := task.GenSpec{MeanWork: 2e10, WorkSigma: 1.0, MeanBytes: 2e7, BytesSigma: 0.8}
	for _, images := range sizes {
		d := task.MontageLike(workload.NewRNG(uint64(images)), images, spec)
		var heftMs float64
		for _, algo := range algos {
			c := buildF2Continuum()
			env := c.Env()
			sched := algo.run(env, d, workload.NewRNG(7))
			st, err := c.RunDAG(d, sched, env, core.Options{})
			if err != nil {
				panic(fmt.Sprintf("experiments: F2 %s on %s: %v", algo.name, d.Name, err))
			}
			if algo.name == "heft" {
				heftMs = st.Makespan
			}
			ratio := st.Makespan / heftMs
			tbl.AddRow(
				d.Name,
				fmt.Sprintf("%d", d.N()),
				algo.name,
				metrics.FormatDuration(st.Makespan),
				fmt.Sprintf("%.2fx", ratio),
			)
		}
	}
	return &Result{
		ID:    "F2",
		Title: "Science-workflow scheduling across the continuum",
		Table: tbl,
		Notes: "Expected shape: heft <= cpop < greedy-eft < round-robin <= random on makespan; the HEFT advantage widens with DAG size (typically 1.5-3x vs random).",
	}
}

// buildF2Continuum assembles the heterogeneous scheduling testbed: a slow
// edge box, a mid-speed campus cluster, and a fast-but-distant cloud. The
// ~10x per-core speed spread is the regime HEFT was designed for: a
// speed-oblivious scheduler strands critical-path tasks on slow cores.
func buildF2Continuum() *core.Continuum {
	c := core.New()
	edge := c.AddNode(node.Spec{
		Name: "edge", Class: node.Fog,
		Cores: 4, CoreFlops: 1e9, MemBytes: 16 << 30,
		IdleWatts: 20, ActiveWattsCore: 5,
	})
	campus := c.AddNode(node.Spec{
		Name: "campus", Class: node.Campus,
		Cores: 8, CoreFlops: 3e9, MemBytes: 128 << 30,
		IdleWatts: 150, ActiveWattsCore: 10, DollarPerHour: 1.5,
	})
	cloud := c.AddNode(node.Spec{
		Name: "cloud", Class: node.Cloud,
		Cores: 32, CoreFlops: 1e10, MemBytes: 512 << 30,
		IdleWatts: 300, ActiveWattsCore: 12,
		DollarPerHour: 12, EgressPerByte: 9e-11,
	})
	c.Connect(edge.ID, campus.ID, 0.002, 1.25e8)  // metro
	c.Connect(campus.ID, cloud.ID, 0.020, 1.25e9) // WAN
	c.Connect(edge.ID, cloud.ID, 0.022, 1.25e9)
	return c
}
