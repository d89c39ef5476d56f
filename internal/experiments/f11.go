package experiments

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/metrics"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// f11Jobs generates a heavy-tailed task bag: Poisson arrivals per sensor
// whose work follows a lognormal — most tasks are mice around the T1
// analytics size, a few are whales several times larger. The whales
// create queueing noise; the degraded node (see F11Speculation) creates
// the stragglers speculation is aimed at.
func f11Jobs(tt *core.ThreeTier, rng *workload.RNG, ratePerSensor, horizon, sigma float64) []core.StreamJob {
	var jobs []core.StreamJob
	for g := range tt.Sensors {
		for _, s := range tt.Sensors[g] {
			arr := workload.NewPoisson(rng.Split(), ratePerSensor)
			sizes := rng.Split()
			t := 0.0
			for {
				t += arr.Next()
				if t > horizon {
					break
				}
				// Median e^mu ≈ 1, so the typical task matches T1's 5e8
				// flops; sigma stretches the upper tail only.
				work := 5e8 * sizes.Lognormal(0, sigma)
				jobs = append(jobs, core.StreamJob{
					Task: &task.Task{
						Name:        "analyze",
						ScalarWork:  work,
						OutputBytes: 128,
						Inputs:      []task.DataRef{{Name: "reading", Bytes: 1024}},
					},
					Origin: s.ID,
					Submit: t,
				})
			}
		}
	}
	return jobs
}

// F11Speculation measures hedged (speculative) execution against
// stragglers. The classic straggler is environmental, not intrinsic: a
// task is slow because of where it landed, not what it is. So one
// gateway is silently degraded (its cores run at 1/slow speed — thermal
// throttling, a noisy neighbor, failing hardware) while placement stays
// round-robin and queue-blind, sending it a full share of a heavy-tailed
// task bag. Every sixth task becomes a straggler that a backup replica
// on a healthy node can beat.
//
// With speculation on, an attempt still unfinished past the observed p80
// latency (or 2x its expected runtime before enough samples exist) gets
// a backup on the next candidate node; first finisher wins, the loser is
// preempted. Wasted work prices the bet: every preempted replica burned
// node time for a discarded result.
func F11Speculation(size Size) *Result {
	slowdowns := []float64{1, 4, 10}
	rate := 1.2
	horizon := 30.0
	gateways, sensorsPer := 4, 4
	if size == Small {
		slowdowns = []float64{10}
		horizon = 8.0
		gateways, sensorsPer = 2, 2
	}
	const sigma = 0.8 // lognormal work tail: p99 task ~6x the median

	tbl := metrics.NewTable(
		"F11 — speculative execution vs stragglers (one degraded gateway, round-robin placement)",
		"slowdown", "speculate", "p50_lat", "p99_lat", "completed", "backups", "wins", "wasted",
	)

	for _, slow := range slowdowns {
		for _, spec := range []bool{false, true} {
			tt := core.BuildThreeTier(core.DefaultThreeTierParams(gateways, sensorsPer))
			// The degraded node: placement does not know (round-robin
			// never looks), the speculation policy does not know — only
			// the observed latency distribution betrays it.
			tt.Gateways[0].CoreFlops /= slow
			jobs := f11Jobs(tt, workload.NewRNG(7), rate, horizon, sigma)
			opts := core.Options{MaxRetries: 2}
			if spec {
				opts.Speculate = core.SpeculateOptions{Quantile: 0.80, Multiple: 2}
			}
			st := tt.RunStream(&placement.RoundRobin{}, jobs, tt.ComputeNodes(), opts)

			wasted := 0.0
			if st.Completed+st.PreemptedTasks > 0 {
				wasted = float64(st.PreemptedTasks) / float64(st.Completed+st.PreemptedTasks)
			}
			tbl.AddRow(
				fmt.Sprintf("%.0fx", slow),
				fmt.Sprintf("%v", spec),
				metrics.FormatDuration(st.Latency.P50()),
				metrics.FormatDuration(st.Latency.P99()),
				fmt.Sprintf("%d", st.Completed),
				fmt.Sprintf("%d", st.SpeculativeLaunches),
				fmt.Sprintf("%d", st.SpeculativeWins),
				fmt.Sprintf("%.1f%%", wasted*100),
			)
		}
	}
	return &Result{
		ID:    "F11",
		Title: "Hedging the tail (speculative execution vs stragglers)",
		Table: tbl,
		Notes: "Expected shape: without degradation speculation is near-neutral (waste but no p99 change — hedging's insurance premium). As the degraded gateway slows, baseline p99 tracks the slow node's execution time while the speculative run caps it an order of magnitude lower — backups on healthy nodes beat the stragglers — at a wasted-work cost around 15%. p50 stays untouched in every row: speculation never fires on the median.",
	}
}
