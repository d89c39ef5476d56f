package continuum_test

import (
	"os"
	"testing"

	"continuum/internal/scenario"
)

// TestScenarioBothBackends is the DSL's headline claim end to end: one
// scenario file drives both execution substrates. The same compiled JSON
// runs on the discrete-event simulator (non-degenerate report) and
// against a real in-process continuumd fleet (zero lost requests despite
// the scripted cascade, fog failure, and link degradation), and both
// submit the same number of requests. Wall-clock edges may move a few
// arrivals between suppressed and completed live, so only the totals
// (completed + lost + suppressed + shed) must agree.
func TestScenarioBothBackends(t *testing.T) {
	checkGoroutines(t)
	raw, err := os.ReadFile("examples/scenarios/cascading-failure.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := scenario.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}

	sim, _, err := p.RunTraced()
	if err != nil {
		t.Fatal(err)
	}
	if sim.Backend != "sim" {
		t.Fatalf("sim backend label %q", sim.Backend)
	}
	if sim.Completed == 0 || sim.MeanLat <= 0 || sim.Joules <= 0 {
		t.Fatalf("degenerate sim report: %+v", sim)
	}
	if sim.Suppressed == 0 {
		t.Fatal("scripted gateway cascade suppressed nothing in sim")
	}

	live, err := p.RunLive(scenario.LiveOptions{TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if live.Backend != "live" {
		t.Fatalf("live backend label %q", live.Backend)
	}
	if live.Completed == 0 {
		t.Fatal("live fleet completed nothing")
	}
	if live.Lost != 0 {
		t.Fatalf("live replay lost %d of %d requests", live.Lost, live.Lost+live.Completed)
	}
	if live.Suppressed == 0 {
		t.Fatal("scripted gateway cascade suppressed nothing live")
	}
	simTotal := sim.Completed + sim.Lost + sim.Suppressed + sim.Shed
	liveTotal := live.Completed + live.Lost + live.Suppressed + live.Shed
	if simTotal != liveTotal {
		t.Fatalf("sim submitted %d requests, live %d: the backends replayed different arrivals", simTotal, liveTotal)
	}
}
