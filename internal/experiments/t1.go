package experiments

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/metrics"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// t1Policies returns the policy set the placement table compares.
func t1Policies() []placement.Policy {
	return []placement.Policy{
		placement.EdgeOnly{},
		placement.CloudOnly{},
		placement.GreedyLatency{},
		placement.GreedyEnergy{},
		&placement.RoundRobin{},
	}
}

// t1Jobs generates the IoT analytics workload: every sensor submits
// Poisson-arriving analysis tasks (parse+featurize+infer rolled into one
// 5e8-flop unit with 1KB in, 128B out) for the given horizon.
func t1Jobs(tt *core.ThreeTier, rng *workload.RNG, ratePerSensor float64, horizon float64) []core.StreamJob {
	var jobs []core.StreamJob
	for g := range tt.Sensors {
		for _, s := range tt.Sensors[g] {
			arr := workload.NewPoisson(rng.Split(), ratePerSensor)
			t := 0.0
			for {
				t += arr.Next()
				if t > horizon {
					break
				}
				jobs = append(jobs, core.StreamJob{
					Task: &task.Task{
						Name:        "analyze",
						ScalarWork:  5e8,
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

// T1Placement answers "where should I compute" for the motivating IoT
// analytics workload: per-policy mean/p99 latency, energy, and WAN egress
// across an arrival-rate sweep on the three-tier continuum.
func T1Placement(size Size) *Result {
	rates := []float64{2, 10, 25}
	horizon := 20.0
	gateways, sensorsPer := 4, 4
	if size == Small {
		rates = []float64{2, 10}
		horizon = 5.0
		gateways, sensorsPer = 2, 2
	}

	tbl := metrics.NewTable(
		"T1 — placement policies on the IoT analytics pipeline",
		"rate/sensor", "policy", "mean_lat", "p99_lat", "joules", "egress", "cloud_share",
	)

	for _, rate := range rates {
		for _, pol := range t1Policies() {
			tt := core.BuildThreeTier(core.DefaultThreeTierParams(gateways, sensorsPer))
			jobs := t1Jobs(tt, workload.NewRNG(42), rate, horizon)
			st := tt.RunStream(pol, jobs, tt.ComputeNodes(), core.Options{})

			cloudShare := float64(st.PerNode["cloud"]) / float64(st.Completed)
			tbl.AddRow(
				fmt.Sprintf("%.0f/s", rate),
				pol.Name(),
				metrics.FormatDuration(st.Latency.Mean()),
				metrics.FormatDuration(st.Latency.P99()),
				fmt.Sprintf("%.0fJ", st.Joules),
				metrics.FormatBytes(st.EgressB),
				fmt.Sprintf("%.0f%%", cloudShare*100),
			)
		}
	}
	return &Result{
		ID:    "T1",
		Title: "Where should I compute? (policy comparison, IoT pipeline)",
		Table: tbl,
		Notes: "Expected shape: edge-only wins latency at low rates but saturates as rate grows; cloud-only pays the WAN RTT and all the egress; greedy-latency tracks the better of the two at every rate; greedy-energy avoids the power-hungry cloud.",
	}
}
