package experiments

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/fault"
	"continuum/internal/metrics"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// F10Workflow measures what task-level retry (checkpointing completed
// outputs) costs a science workflow on a flaky continuum: an
// Epigenomics-like pipeline is HEFT-scheduled onto a testbed whose edge
// node fails with decreasing MTBF, and the makespan inflation over the
// failure-free run is the figure. Completed tasks survive failures; only
// in-flight work is lost — the checkpointing argument, quantified.
//
// The reliable runs here execute on the same core engine as F2's base
// runs (fault-awareness is a hook, not a fork), so the makespan
// inflation column isolates the cost of failures, not runner drift.
func F10Workflow(size Size) *Result {
	lanes, depth := 4, 5
	mtbfs := []float64{1e9, 30, 10, 3}
	if size == Small {
		lanes, depth = 2, 3
		mtbfs = []float64{1e9, 3}
	}
	const mttr = 5.0

	d := task.EpigenomicsLike(workload.NewRNG(2019), lanes, depth, task.GenSpec{
		MeanWork: 1e10, WorkSigma: 0.6, MeanBytes: 1e7, BytesSigma: 0.5,
	})

	run := func(mtbf float64) (*core.Stats, error) {
		// Core-constrained heterogeneous cluster: HEFT must spread work,
		// so every node's failures matter.
		c := tightSchedContinuum()
		env := c.Env()
		sched := placement.HEFT(env, d)
		opts := core.Options{MaxRetries: 1000, RetryBackoff: 0.5}
		if mtbf < 1e8 {
			rng := workload.NewRNG(31)
			opts.Faults = map[int]*fault.Target{}
			for _, n := range env.Nodes {
				opts.Faults[n.ID] = fault.Attach(c.K, n.Name, fault.Spec{MeanUp: mtbf, MeanDown: mttr}, 1e6, rng)
			}
		}
		return c.RunDAG(d, sched, env, opts)
	}

	base, err := run(1e9)
	if err != nil {
		panic(fmt.Sprintf("experiments: F10 baseline: %v", err))
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("F10 — workflow under failures (%d tasks, HEFT, task-level retry)", d.N()),
		"mtbf", "makespan", "inflation", "retries", "completed",
	)
	for _, mtbf := range mtbfs {
		st, err := run(mtbf)
		if err != nil {
			panic(fmt.Sprintf("experiments: F10 mtbf=%v: %v", mtbf, err))
		}
		label := fmt.Sprintf("%.0fs", mtbf)
		if mtbf >= 1e8 {
			label = "none"
		}
		tbl.AddRow(
			label,
			metrics.FormatDuration(st.Makespan),
			fmt.Sprintf("%.2fx", st.Makespan/base.Makespan),
			fmt.Sprintf("%d", st.Retries),
			fmt.Sprintf("%d/%d", st.Completed, d.N()),
		)
	}
	return &Result{
		ID:    "F10",
		Title: "Science workflows on a flaky continuum (checkpoint/retry)",
		Table: tbl,
		Notes: "Expected shape: with task-level retry the workflow always completes; makespan inflation is mild while MTBF >> task duration and grows toward (MeanUp+MeanDown)/MeanUp-scaled blowup as MTBF approaches the task scale — the regime where finer-grained checkpointing (or failure-aware scheduling) becomes mandatory.",
	}
}
