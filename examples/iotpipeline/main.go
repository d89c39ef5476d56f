// IoT pipeline: "where should I compute?" for a streaming analytics
// chain. Sensors on two gateways emit readings through
// parse→filter→featurize→infer; we place the pipeline three ways (all at
// the edge, all in the cloud, filter-at-edge hybrid) and compare latency,
// energy, and WAN traffic. Run with:
//
//	go run ./examples/iotpipeline
package main

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/metrics"
	"continuum/internal/node"
	"continuum/internal/workload"
)

// stage is one pipeline operator.
type stage struct {
	work        float64 // scalar flops spent on each incoming event
	selectivity float64 // probability an event survives the stage, in (0, 1]
	outBytes    float64 // size of each forwarded event
}

// iotAnalytics is the pipeline this example places: parse (cheap, keeps
// everything), filter (drops 90%), featurize (moderate), infer (heavy,
// keeps everything it sees).
var iotAnalytics = []stage{
	{work: 1e6, selectivity: 1.0, outBytes: 512},  // parse
	{work: 5e6, selectivity: 0.1, outBytes: 256},  // filter
	{work: 5e7, selectivity: 1.0, outBytes: 1024}, // featurize
	{work: 5e8, selectivity: 1.0, outBytes: 128},  // infer
}

// source emits events into the pipeline from a sensor vertex.
type source struct {
	origin   int
	arrivals workload.ArrivalProcess
	events   int
	bytes    float64 // raw event size entering stage 0
}

// stats summarizes one streaming run.
type stats struct {
	in, out int64 // events emitted, and events surviving every stage
	latency *metrics.Histogram
	joules  float64
	// boundaryBytes[i] is the total bytes that entered stage i.
	boundaryBytes []float64
}

// run streams every source's events through stages, stage i running on
// place[i]: each event pays network movement between distinct nodes and
// compute at each stage, and drops per stage selectivity, drawn from
// rng. run owns the continuum's kernel.
func run(c *core.Continuum, stages []stage, sources []source, place []*node.Node, rng *workload.RNG) *stats {
	st := &stats{latency: metrics.NewHistogram(), boundaryBytes: make([]float64, len(stages))}

	var advance func(i int, emitted float64)
	advance = func(i int, emitted float64) {
		if i == len(stages) {
			st.out++
			st.latency.Add(c.K.Now() - emitted)
			return
		}
		s, n := stages[i], place[i]
		n.Execute(s.work, 0, node.NoAccel, func() {
			if rng.Float64() >= s.selectivity {
				return
			}
			if i+1 == len(stages) {
				advance(i+1, emitted)
				return
			}
			next := place[i+1]
			st.boundaryBytes[i+1] += s.outBytes
			if next.ID == n.ID {
				advance(i+1, emitted)
				return
			}
			c.Net.Message(n.ID, next.ID, s.outBytes, func() { advance(i+1, emitted) })
		})
	}

	for _, src := range sources {
		t := 0.0
		for i := 0; i < src.events; i++ {
			t += src.arrivals.Next()
			emit := t
			c.K.At(emit, func() {
				st.in++
				st.boundaryBytes[0] += src.bytes
				if src.origin == place[0].ID {
					advance(0, emit)
					return
				}
				c.Net.Message(src.origin, place[0].ID, src.bytes, func() { advance(0, emit) })
			})
		}
	}
	c.K.Run()
	st.joules = c.TotalJoules()
	return st
}

func main() {
	tbl := metrics.NewTable(
		"IoT analytics: operator placement over the continuum",
		"placement", "mean_lat", "p99_lat", "joules", "wan_bytes", "delivered",
	)

	for _, plan := range []string{"edge-only", "cloud-only", "hybrid"} {
		tt := core.BuildThreeTier(core.DefaultThreeTierParams(2, 4))

		var place []*node.Node
		switch plan {
		case "edge-only":
			place = []*node.Node{tt.Gateways[0], tt.Gateways[0], tt.Fog, tt.Fog}
		case "cloud-only":
			place = []*node.Node{tt.Cloud, tt.Cloud, tt.Cloud, tt.Cloud}
		case "hybrid": // filter at the edge, heavy inference in the cloud
			place = []*node.Node{tt.Gateways[0], tt.Gateways[0], tt.Cloud, tt.Cloud}
		}

		var sources []source
		for g := range tt.Sensors {
			for _, s := range tt.Sensors[g] {
				sources = append(sources, source{
					origin:   s.ID,
					arrivals: workload.NewPoisson(workload.NewRNG(uint64(s.ID)), 10),
					events:   100,
					bytes:    2048,
				})
			}
		}

		st := run(tt.Continuum, iotAnalytics, sources, place, workload.NewRNG(7))
		// WAN traffic: bytes crossing into the cloud-resident stages.
		wan := 0.0
		for i, n := range place {
			if n == tt.Cloud {
				wan += st.boundaryBytes[i]
				break
			}
		}
		tbl.AddRow(
			plan,
			metrics.FormatDuration(st.latency.Mean()),
			metrics.FormatDuration(st.latency.P99()),
			fmt.Sprintf("%.0f", st.joules),
			metrics.FormatBytes(wan),
			fmt.Sprintf("%d/%d", st.out, st.in),
		)
	}
	fmt.Print(tbl.String())
	fmt.Println("\nThe hybrid keeps the highly selective filter next to the sensors and ships only survivors to fast cloud silicon.")
}
