// Science workflow: schedule a Montage-like astronomy mosaic DAG across a
// heterogeneous continuum (slow edge cluster, campus machine, fast distant
// cloud) with five schedulers, executing each schedule under the full
// network-contention model. Run with:
//
//	go run ./examples/scienceflow
package main

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/metrics"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

func buildContinuum() *core.Continuum {
	c := core.New()
	edge := c.AddNode(node.Spec{
		Name: "edge-cluster", Class: node.Fog,
		Cores: 8, CoreFlops: 1e9, MemBytes: 32 << 30,
		IdleWatts: 50, ActiveWattsCore: 5,
	})
	campus := c.AddNode(node.Spec{
		Name: "campus", Class: node.Campus,
		Cores: 16, CoreFlops: 3e9, MemBytes: 128 << 30,
		IdleWatts: 150, ActiveWattsCore: 10, DollarPerHour: 1.5,
	})
	cloud := c.AddNode(node.Spec{
		Name: "cloud", Class: node.Cloud,
		Cores: 64, CoreFlops: 8e9, MemBytes: 512 << 30,
		IdleWatts: 300, ActiveWattsCore: 12,
		DollarPerHour: 16, EgressPerByte: 9e-11,
	})
	c.Connect(edge.ID, campus.ID, 0.002, 1.25e8)
	c.Connect(campus.ID, cloud.ID, 0.025, 1.25e9)
	c.Connect(edge.ID, cloud.ID, 0.027, 1.25e9)
	return c
}

func main() {
	const images = 40
	dag := task.MontageLike(workload.NewRNG(2019), images, task.GenSpec{
		MeanWork: 3e10, WorkSigma: 1.0, MeanBytes: 3e7, BytesSigma: 0.8,
	})
	fmt.Printf("Montage-like mosaic: %d tasks, %d edges, %.1f Tflop total, %s intermediate data\n\n",
		dag.N(), len(dag.Edges), dag.TotalWork()/1e12, metrics.FormatBytes(dag.TotalEdgeBytes()))

	schedulers := []struct {
		name string
		make func(*placement.Env) placement.Schedule
	}{
		{"heft", func(e *placement.Env) placement.Schedule { return placement.HEFT(e, dag) }},
		{"cpop", func(e *placement.Env) placement.Schedule { return placement.CPOP(e, dag) }},
		{"greedy-eft", func(e *placement.Env) placement.Schedule { return placement.ListGreedy(e, dag) }},
		{"round-robin", func(e *placement.Env) placement.Schedule { return placement.ListRoundRobin(e, dag) }},
		{"random", func(e *placement.Env) placement.Schedule {
			return placement.ListRandom(e, dag, workload.NewRNG(5))
		}},
	}

	// mean_task_lat is per-task ready→finish (core.Stats.Latency): how
	// long a task spends staging, queued, and executing once runnable —
	// the scheduler-quality signal makespan alone hides.
	tbl := metrics.NewTable("", "scheduler", "est_makespan", "measured", "mean_task_lat", "energy", "cost")
	for _, s := range schedulers {
		c := buildContinuum()
		env := c.Env()
		sched := s.make(env)
		st, err := c.RunDAG(dag, sched, env, core.Options{})
		if err != nil {
			panic(err)
		}
		tbl.AddRow(
			s.name,
			metrics.FormatDuration(sched.EstMakespan),
			metrics.FormatDuration(st.Makespan),
			metrics.FormatDuration(st.Latency.Mean()),
			fmt.Sprintf("%.0f J", st.Joules),
			fmt.Sprintf("$%.4f", st.Dollars),
		)
	}
	fmt.Print(tbl.String())
}
