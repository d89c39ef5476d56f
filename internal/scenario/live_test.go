package scenario

import (
	"strings"
	"testing"
	"time"

	"continuum/internal/trace"
)

// liveScenario is a small evented stream scenario sized for fast
// wall-clock replay: ~8 scenario seconds at TimeScale 0.05 is ~0.4s.
func liveScenario() *Scenario {
	s := eventScenario()
	s.Name = "live-smoke"
	s.Seed = 11
	s.Stream.RatePerOrigin = 12
	s.Stream.Origins = []string{"gw0", "gw1", "gw2"}
	s.Stream.Horizon = 8
	s.Events = []EventJSON{
		{At: 1, Kind: "chaos", Target: "fog", Spec: "drop=0.3,err=0.1", For: 4},
		{At: 2, Kind: "fail", Target: "gw1", For: 3},
		{At: 3, Kind: "degrade-link", Target: "fog->cloud", Factor: 3},
		{At: 5, Kind: "restore-link", Target: "fog->cloud"},
		{At: 2, Kind: "workload", Factor: 2},
	}
	return s
}

// TestLiveBackendZeroLost replays a scripted failure scenario against a
// real in-process fleet and asserts the chaos-e2e claim generalized:
// the reliable client loses nothing, no matter what the script does.
func TestLiveBackendZeroLost(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet skipped in -short")
	}
	s := liveScenario()
	r, err := s.RunLive(LiveOptions{TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r.Backend != "live" {
		t.Fatalf("backend %q", r.Backend)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if r.Lost != 0 {
		t.Fatalf("%d requests lost out of %d", r.Lost, r.Completed+r.Lost)
	}
	if r.Suppressed == 0 {
		t.Fatal("failed origin gw1 generated load anyway")
	}
	if r.MeanLat <= 0 {
		t.Fatalf("degenerate latency: %+v", r)
	}
	var total int64
	for _, n := range r.PerNode {
		total += n
	}
	if total < r.Completed {
		t.Fatalf("per-node invocations %d < completed %d", total, r.Completed)
	}
}

// TestLiveBackendTracesEndToEnd: with a span store configured, a live
// replay must record full traces — client root, attempt, send, server,
// queue, and exec spans, correctly linked — for the scripted fleet.
func TestLiveBackendTracesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet skipped in -short")
	}
	s := liveScenario()
	s.Events = nil // healthy fleet: every trace should be complete
	s.Stream.Horizon = 3
	spans := trace.NewSpanStore(1 << 16)
	r, err := s.RunLive(LiveOptions{TimeScale: 0.05, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if r.Lost != 0 || r.Completed == 0 {
		t.Fatalf("lost=%d completed=%d", r.Lost, r.Completed)
	}
	if spans.Len() == 1<<16 {
		t.Fatal("span ring full, so spans may have been overwritten; size it to the scenario")
	}
	sums := trace.Summarize(spans.Snapshot())
	if int64(len(sums)) != r.Completed {
		t.Fatalf("recorded %d traces for %d completed invocations", len(sums), r.Completed)
	}
	// Every trace must span the client and at least one fleet node, and
	// every span's parent must resolve within its own trace.
	byTrace := make(map[string][]*trace.Span)
	byID := make(map[string]bool)
	for _, sp := range spans.Snapshot() {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
		byID[sp.TraceID+"/"+sp.SpanID] = true
	}
	kinds := map[trace.SpanKind]bool{}
	for id, set := range byTrace {
		roots := 0
		for _, sp := range set {
			kinds[sp.Kind] = true
			if sp.Parent == "" {
				roots++
				if sp.Service != "scenario" {
					t.Fatalf("trace %s rooted at %q, want the scenario client", id, sp.Service)
				}
			} else if !byID[sp.TraceID+"/"+sp.Parent] {
				t.Fatalf("trace %s: span %s has unresolvable parent %s", id, sp.SpanID, sp.Parent)
			}
		}
		if roots != 1 {
			t.Fatalf("trace %s has %d roots, want 1", id, roots)
		}
	}
	for _, k := range []trace.SpanKind{trace.KindClient, trace.KindAttempt, trace.KindServer, trace.KindQueue, trace.KindExec} {
		if !kinds[k] {
			t.Fatalf("no %s spans recorded across %d traces", k, len(sums))
		}
	}
}

// TestLiveRouterChurnZeroLost fronts the live fleet with an in-process
// continuum-router: every node registers through a federation agent,
// requests flow client → router → fleet, and the script churns the
// membership — a graceful leave+rejoin and a hard failure — while the
// zero-loss claim must keep holding end to end.
func TestLiveRouterChurnZeroLost(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet skipped in -short")
	}
	s := liveScenario()
	s.Name = "live-router-churn"
	s.Events = []EventJSON{
		{At: 1, Kind: "leave", Target: "gw1", For: 4},
		{At: 2, Kind: "fail", Target: "fog", For: 3},
		{At: 3, Kind: "workload", Factor: 2},
	}
	r, err := s.RunLive(LiveOptions{TimeScale: 0.05, Router: true, Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "live+router/echo" {
		t.Fatalf("workload %q, want live+router/echo", r.Workload)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed through the router")
	}
	if r.Lost != 0 {
		t.Fatalf("%d requests lost out of %d during membership churn", r.Lost, r.Completed+r.Lost)
	}
	if r.Suppressed == 0 {
		t.Fatal("the departed origin gw1 generated load anyway")
	}
	// The rejoined node served work after coming back: its invocation
	// count must be nonzero (it was an origin before the leave too, so
	// this is a weak but cheap signal the round trip happened).
	if r.PerNode["gw1"] == 0 {
		t.Fatal("gw1 never served an invocation across leave+rejoin")
	}
}

func TestLiveRejectsDAG(t *testing.T) {
	s := eventScenario()
	s.Stream, s.Events = nil, nil
	s.DAG = &DAGJSON{Generator: "chain", Size: 4, Scheduler: "heft"}
	_, err := s.RunLive(LiveOptions{})
	if err == nil || !strings.Contains(err.Error(), "stream scenarios only") {
		t.Fatalf("DAG on live backend: %v", err)
	}
}

// TestLiveRejectsPolicy: a policy without the router, or one the router
// does not know, fails before any node boots.
func TestLiveRejectsPolicy(t *testing.T) {
	for _, tc := range []struct {
		opts LiveOptions
		want string
	}{
		{LiveOptions{Policy: "least-loaded"}, "without the router"},
		{LiveOptions{Policy: "bogus"}, "without the router"},
		{LiveOptions{Router: true, Policy: "bogus"}, `unknown routing policy "bogus" (want hash or least-loaded)`},
	} {
		_, err := eventScenario().RunLive(tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunLive(%+v) = %v, want an error containing %q", tc.opts, err, tc.want)
		}
	}
}

func TestLiveRejectsHugeFleet(t *testing.T) {
	s := GenerateStress(StressSpec{Nodes: 1000, Seed: 1})
	_, err := s.RunLive(LiveOptions{TimeScale: 0.01})
	if err == nil || !strings.Contains(err.Error(), "live fleet cap") {
		t.Fatalf("1000-node live fleet: %v", err)
	}
}

func TestRunnerBackendsShareOneScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet skipped in -short")
	}
	s := liveScenario()
	backends := []struct {
		name string
		run  func() (*Report, error)
	}{
		{"sim", s.Run},
		{"live", func() (*Report, error) { return s.RunLive(LiveOptions{TimeScale: 0.02}) }},
	}
	for _, b := range backends {
		r, err := b.run()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if r.Backend != b.name {
			t.Fatalf("report says %q, want %q", r.Backend, b.name)
		}
		if r.Completed == 0 {
			t.Fatalf("%s completed nothing", b.name)
		}
	}
}
