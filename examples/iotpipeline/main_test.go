package main

import (
	"testing"

	"continuum/internal/core"
	"continuum/internal/node"
	"continuum/internal/workload"
)

// every is a fixed-period arrival process: one event each period seconds.
type every float64

func (p every) Next() float64 { return float64(p) }
func (p every) Rate() float64 { return 1 / float64(p) }

func testTier() *core.ThreeTier {
	return core.BuildThreeTier(core.DefaultThreeTierParams(2, 2))
}

// twoStages forwards everything: a 100 B hop, then a 50 B result.
var twoStages = []stage{
	{work: 1e6, selectivity: 1.0, outBytes: 100},
	{work: 1e6, selectivity: 1.0, outBytes: 50},
}

func TestRunAllEventsSurviveWithUnitSelectivity(t *testing.T) {
	tt := testTier()
	src := source{origin: tt.Sensors[0][0].ID, arrivals: every(0.1), events: 50, bytes: 200}
	place := []*node.Node{tt.Gateways[0], tt.Gateways[0]}
	st := run(tt.Continuum, twoStages, []source{src}, place, workload.NewRNG(1))
	if st.in != 50 || st.out != 50 {
		t.Fatalf("in/out = %d/%d, want 50/50", st.in, st.out)
	}
	if st.latency.Count() != 50 {
		t.Fatal("latency histogram incomplete")
	}
}

// TestRunSelectivityDrops: every emitted event is either delivered or
// dropped by the first stage, none lost or duplicated in flight.
func TestRunSelectivityDrops(t *testing.T) {
	tt := testTier()
	stages := append([]stage(nil), twoStages...)
	stages[0].selectivity = 0.5
	src := source{origin: tt.Sensors[0][0].ID, arrivals: every(0.05), events: 400, bytes: 200}
	place := []*node.Node{tt.Gateways[0], tt.Fog}
	st := run(tt.Continuum, stages, []source{src}, place, workload.NewRNG(2))
	survived := int64(st.boundaryBytes[1] / stages[0].outBytes)
	dropped := st.in - survived
	if st.out+dropped != st.in {
		t.Fatalf("conservation violated: %d + %d != %d", st.out, dropped, st.in)
	}
	if frac := float64(st.out) / float64(st.in); frac < 0.40 || frac > 0.60 {
		t.Fatalf("survival fraction %v, want ~0.5", frac)
	}
}

// TestEdgeFilteringCutsWANBytes: placing the filter at the gateway rather
// than in the cloud cuts the bytes crossing the WAN by about the
// selectivity factor.
func TestEdgeFilteringCutsWANBytes(t *testing.T) {
	stages := []stage{
		{work: 1e6, selectivity: 0.1, outBytes: 100}, // filter
		{work: 1e7, selectivity: 1.0, outBytes: 10},  // infer
	}
	wan := func(filterAtEdge bool) float64 {
		tt := testTier()
		place := []*node.Node{tt.Cloud, tt.Cloud}
		crossing := 0 // all raw events cross into the cloud
		if filterAtEdge {
			place[0] = tt.Gateways[0]
			crossing = 1 // only filter survivors cross
		}
		src := source{origin: tt.Sensors[0][0].ID, arrivals: every(0.05), events: 300, bytes: 1000}
		return run(tt.Continuum, stages, []source{src}, place, workload.NewRNG(3)).boundaryBytes[crossing]
	}
	if edge, cloud := wan(true), wan(false); edge*5 > cloud {
		t.Fatalf("edge filtering moved %v bytes, cloud %v; expected >5x reduction", edge, cloud)
	}
}

func TestMultipleSources(t *testing.T) {
	tt := testTier()
	var sources []source
	for g := range tt.Sensors {
		for _, s := range tt.Sensors[g] {
			sources = append(sources, source{
				origin:   s.ID,
				arrivals: workload.NewPoisson(workload.NewRNG(uint64(s.ID)), 5),
				events:   25,
				bytes:    300,
			})
		}
	}
	st := run(tt.Continuum, twoStages, sources, []*node.Node{tt.Fog, tt.Fog}, workload.NewRNG(5))
	want := int64(len(sources) * 25)
	if st.in != want || st.out != want {
		t.Fatalf("in/out = %d/%d, want %d", st.in, st.out, want)
	}
	if st.joules <= 0 {
		t.Fatal("no energy accounted")
	}
}

// TestLatencyOrderingEdgeVsCloudForHeavyCompute: with heavy per-event
// compute and tiny events, the fast cloud beats the slow gateway even
// across the WAN.
func TestLatencyOrderingEdgeVsCloudForHeavyCompute(t *testing.T) {
	heavy := []stage{{work: 5e9, selectivity: 1, outBytes: 64}}
	mean := func(at func(*core.ThreeTier) *node.Node) float64 {
		tt := testTier()
		// A 5 s period leaves no queueing.
		src := source{origin: tt.Sensors[0][0].ID, arrivals: every(5.0), events: 10, bytes: 100}
		return run(tt.Continuum, heavy, []source{src}, []*node.Node{at(tt)}, workload.NewRNG(6)).latency.Mean()
	}
	gw := mean(func(tt *core.ThreeTier) *node.Node { return tt.Gateways[0] })
	cl := mean(func(tt *core.ThreeTier) *node.Node { return tt.Cloud })
	if cl >= gw {
		t.Fatalf("cloud %v not faster than gateway %v for heavy compute", cl, gw)
	}
}
