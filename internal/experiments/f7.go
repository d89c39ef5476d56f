package experiments

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/fault"
	"continuum/internal/metrics"
	"continuum/internal/placement"
	"continuum/internal/workload"
)

// F7Reliability extends the placement question to the continuum's
// defining reality: the edge fails. Gateways flap with decreasing MTBF
// while the cloud stays up; failure-aware policies re-dispatch lost work.
// Edge-favoring placement wins latency only while the edge is healthy;
// as MTBF approaches the task duration, retries erase the edge advantage
// and the latency-optimal placement migrates inward — reliability is a
// placement input, not an afterthought.
//
// The reliable runs here execute on the same core engine as T1's base
// runs (fault-awareness is a hook, not a fork), so the latency columns
// are directly comparable across the two experiments.
func F7Reliability(size Size) *Result {
	// MTBF sweep in seconds of gateway uptime; tasks take ~0.2s on a
	// gateway core, so the last rows approach the task scale.
	mtbfs := []float64{1000, 30, 5, 1}
	horizon := 30.0
	gateways, sensorsPer := 4, 4
	if size == Small {
		mtbfs = []float64{1000, 5}
		horizon = 8.0
		gateways, sensorsPer = 2, 2
	}
	const mttr = 2.0

	tbl := metrics.NewTable(
		"F7 — placement under edge failures (gateway MTBF sweep, MTTR 2s)",
		"gw_mtbf", "policy", "success", "retries", "mean_lat", "cloud_share",
	)

	for _, mtbf := range mtbfs {
		for _, pol := range []placement.Policy{
			placement.EdgeOnly{},
			placement.CloudOnly{},
			placement.GreedyLatency{},
		} {
			tt := core.BuildThreeTier(core.DefaultThreeTierParams(gateways, sensorsPer))
			rng := workload.NewRNG(99)
			faults := make(map[int]*fault.Target)
			for _, gw := range tt.Gateways {
				faults[gw.ID] = fault.Attach(tt.K, gw.Name, fault.Spec{MeanUp: mtbf, MeanDown: mttr}, horizon*3, rng)
			}
			jobs := t1Jobs(tt, workload.NewRNG(42), 5, horizon)
			st := tt.RunStream(pol, jobs, tt.ComputeNodes(), core.Options{
				Faults:     faults,
				MaxRetries: 5,
			})
			cloudShare := 0.0
			if st.Completed > 0 {
				cloudShare = float64(st.PerNode["cloud"]) / float64(st.Completed)
			}
			tbl.AddRow(
				fmt.Sprintf("%.0fs", mtbf),
				pol.Name(),
				fmt.Sprintf("%.1f%%", st.SuccessRate()*100),
				fmt.Sprintf("%d", st.Retries),
				metrics.FormatDuration(st.Latency.Mean()),
				fmt.Sprintf("%.0f%%", cloudShare*100),
			)
		}
	}
	return &Result{
		ID:    "F7",
		Title: "Reliability as a placement input (flaky edge)",
		Table: tbl,
		Notes: "Expected shape: at high MTBF all policies succeed and edge placement is cheap; as MTBF falls toward the task scale, edge-only accumulates retries and its mean latency climbs, cloud-only is failure-immune at constant latency, and failure-aware greedy drifts work toward the cloud.",
	}
}
