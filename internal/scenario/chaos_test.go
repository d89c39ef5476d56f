package scenario

import (
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"continuum/internal/fault"
	"continuum/internal/sim"
)

// TestChaosSameDrawsOnBothBackends: for every chaos-on op of the shipped
// scenarios that script chaos, the injector the sim consults and the one
// the live fleet installs give a request at the same scenario time the
// same fate: the same action, a delay equal within 1 ns once scaled to
// wall time, and the same up/down phase, whose boundaries are exactly
// the times the sim's kernel flips the node. Each side's injector is
// built as its backend builds it: the sim's without phases, which flip a
// fault target through fault.Cycle instead; the live one walking them.
func TestChaosSameDrawsOnBothBackends(t *testing.T) {
	const scale = 0.02 // wall seconds per scenario second, as the CI smokes replay
	start := time.Now()
	for _, name := range []string{"cascading-failure", "correlated-edge-churn", "gateway-brownout"} {
		raw, err := os.ReadFile("../../examples/scenarios/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		p, err := Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		simEvents, _ := p.streams()
		liveEvents, _ := p.streams()
		simStreams, liveStreams := p.chaosStreams(simEvents), p.chaosStreams(liveEvents)
		checked, downs := 0, 0
		for i, o := range p.ops {
			if o.kind != opChaosOn {
				continue
			}
			checked++
			where := name + "/" + p.Scenario.Nodes[o.node].Name

			simInj := fault.NewChaosOn(o.chaos, simStreams[i].draws, nil, time.Time{}, 1)
			var flips []float64
			if ph := simStreams[i].phases; ph != nil {
				k := sim.NewKernel()
				tg := fault.NewTarget(where)
				flip := func() { flips = append(flips, k.Now()) }
				tg.OnFail, tg.OnRepair = flip, flip
				fault.Cycle(k, tg, ph)
				k.Run()
			}
			live := fault.NewChaosOn(o.chaos, liveStreams[i].draws, liveStreams[i].phases, start, scale) // as replay builds it
			livePhases := liveStreams[i].phases
			if (livePhases == nil) != (o.chaos.MeanUp == 0) {
				t.Fatalf("%s: live phases %v for up=%v", where, livePhases, o.chaos.MeanUp)
			}

			// Requests over the chaos window: a grid, plus a moment after
			// each flip so that every phase is visited.
			stop := p.chaosStop(o)
			var times []float64
			for j := 0; j < 500; j++ {
				times = append(times, o.at+(float64(j)+0.5)*(stop-o.at)/500)
			}
			for _, f := range flips {
				if f+1e-6 < stop {
					times = append(times, f+1e-6)
				}
			}
			sort.Float64s(times)
			for _, at := range times {
				passed := sort.Search(len(flips), func(j int) bool { return flips[j] > at })
				down := passed%2 == 1
				want, wantDelay := fault.ChaosDrop, 0.0
				if down {
					downs++
				} else {
					want, wantDelay = simInj.Draw(at)
				}
				got, gotDelay := live.NextAt(start.Add(time.Duration(at * scale * float64(time.Second))))
				if got != want {
					t.Fatalf("%s at %v: live %v, sim %v", where, at, got, want)
				}
				if d := math.Abs(float64(gotDelay) - wantDelay*scale*float64(time.Second)); d > 1 {
					t.Fatalf("%s at %v: live delay %v, sim %vs × %v (%v ns apart)", where, at, gotDelay, wantDelay, scale, d)
				}
				if livePhases == nil {
					continue
				}
				next := math.Inf(1)
				if passed < len(flips) {
					next = flips[passed]
				}
				if livePhases.Up() == down || livePhases.End() != next {
					t.Fatalf("%s at %v: live phase up=%v until %v, sim up=%v until %v",
						where, at, livePhases.Up(), livePhases.End(), !down, next)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no chaos-on op", name)
		}
		if name == "correlated-edge-churn" && downs == 0 {
			t.Fatalf("%s: no request fell in a down phase", name)
		}
	}
}
