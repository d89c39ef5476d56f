package experiments

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/metrics"
	"continuum/internal/placement"
	"continuum/internal/workload"
)

// T4Pareto maps the latency/energy/dollar tradeoff space: single-objective
// policies plus a grid of multi-objective weightings all run the same IoT
// workload; the Pareto front shows that no placement dominates — the
// keynote's "myriad of new answers" made quantitative.
func T4Pareto(size Size) *Result {
	gateways, sensorsPer, horizon, rate := 4, 4, 20.0, 10.0
	if size == Small {
		gateways, sensorsPer, horizon = 2, 2, 5.0
	}

	pols := []placement.Policy{
		placement.EdgeOnly{},
		placement.CloudOnly{},
		placement.GreedyLatency{},
		placement.GreedyEnergy{},
		placement.GreedyCost{},
	}
	for _, w := range []placement.Weights{
		{Latency: 1, Energy: 1},
		{Latency: 1, Dollars: 1},
		{Latency: 1, Energy: 1, Dollars: 1},
		{Latency: 3, Energy: 1},
	} {
		pols = append(pols, placement.MultiObjective{W: w})
	}

	var pts []placement.Point
	type row struct {
		name              string
		lat, joules, cost float64
	}
	var rows []row
	for _, pol := range pols {
		tt := core.BuildThreeTier(core.DefaultThreeTierParams(gateways, sensorsPer))
		jobs := t1Jobs(tt, workload.NewRNG(77), rate, horizon)
		st := tt.RunStream(pol, jobs, tt.ComputeNodes(), core.Options{})
		rows = append(rows, row{pol.Name(), st.Latency.Mean(), st.Joules, st.Dollars})
		pts = append(pts, placement.Point{
			Label: pol.Name(), Latency: st.Latency.Mean(),
			Energy: st.Joules, Dollars: st.Dollars,
		})
	}
	front := placement.ParetoFront(pts)
	onFront := make(map[string]bool, len(front))
	for _, p := range front {
		onFront[p.Label] = true
	}

	tbl := metrics.NewTable(
		"T4 — multi-objective placement: the latency/energy/cost surface",
		"policy", "mean_lat", "joules", "dollars", "pareto",
	)
	for _, r := range rows {
		mark := ""
		if onFront[r.name] {
			mark = "*"
		}
		tbl.AddRow(
			r.name,
			metrics.FormatDuration(r.lat),
			fmt.Sprintf("%.0f", r.joules),
			fmt.Sprintf("$%.4f", r.cost),
			mark,
		)
	}
	return &Result{
		ID:    "T4",
		Title: "Concepts for the continuum: Pareto surface of placements",
		Table: tbl,
		Notes: "Expected shape: multiple policies survive on the front (no single winner); edge-lean points anchor the energy extreme, latency-weighted points the latency extreme; cloud-only is dominated once egress is billed.",
	}
}
