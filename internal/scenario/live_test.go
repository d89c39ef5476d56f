package scenario

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"continuum/internal/fault"
	"continuum/internal/trace"
	"continuum/internal/wire"
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

// compiled compiles s, failing the test if it does not compile.
func compiled(t *testing.T, s *Scenario) *Plan {
	t.Helper()
	p, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLiveBackendZeroLost replays a scripted failure scenario against a
// real in-process fleet and asserts the chaos-e2e claim generalized:
// the reliable client loses nothing, no matter what the script does.
func TestLiveBackendZeroLost(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet skipped in -short")
	}
	r, err := compiled(t, liveScenario()).RunLive(LiveOptions{TimeScale: 0.05})
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
	r, err := compiled(t, s).RunLive(LiveOptions{TimeScale: 0.05, Spans: spans})
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
	r, err := compiled(t, s).RunLive(LiveOptions{TimeScale: 0.05, Router: true, Heartbeat: 50 * time.Millisecond})
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
	_, err := compiled(t, s).RunLive(LiveOptions{})
	if err == nil || !strings.Contains(err.Error(), "stream scenarios only") {
		t.Fatalf("DAG on live backend: %v", err)
	}
}

// TestLiveRejectsPolicy: a policy without the router, one the router
// does not know, or a time scale that is not positive fails before any
// node boots.
func TestLiveRejectsPolicy(t *testing.T) {
	p := compiled(t, eventScenario())
	for _, tc := range []struct {
		opts LiveOptions
		want string
	}{
		{LiveOptions{Policy: "least-loaded"}, "without the router"},
		{LiveOptions{Policy: "bogus"}, "without the router"},
		{LiveOptions{Router: true, Policy: "bogus"}, `unknown routing policy "bogus" (want hash or least-loaded)`},
		{LiveOptions{}, "time scale 0 must be positive"},
		{LiveOptions{TimeScale: -1}, "time scale -1 must be positive"},
	} {
		_, err := p.RunLive(tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunLive(%+v) = %v, want an error containing %q", tc.opts, err, tc.want)
		}
	}
}

func TestLiveRejectsHugeFleet(t *testing.T) {
	s := GenerateStress(StressSpec{Nodes: 1000, Seed: 1})
	_, err := compiled(t, s).RunLive(LiveOptions{TimeScale: 0.01})
	if err == nil || !strings.Contains(err.Error(), "live fleet cap") {
		t.Fatalf("1000-node live fleet: %v", err)
	}
}

// TestRunnerBackendsShareOneScenario: one compiled scenario runs on
// both backends, and both submit the same requests. Each submission
// ends completed, lost, suppressed or shed; wall-clock edges may move a
// few between suppressed and completed live, so only the totals agree.
func TestRunnerBackendsShareOneScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet skipped in -short")
	}
	s := liveScenario()
	p := compiled(t, s)
	backends := []struct {
		name string
		run  func() (*Report, error)
	}{
		{"sim", s.Run},
		{"live", func() (*Report, error) { return p.RunLive(LiveOptions{TimeScale: 0.02}) }},
	}
	var submitted []int64
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
		submitted = append(submitted, r.Completed+r.Lost+r.Suppressed+r.Shed)
	}
	if submitted[0] != submitted[1] {
		t.Fatalf("sim submitted %d requests, live %d", submitted[0], submitted[1])
	}
}

// TestLiveRunLeavesNoGoroutines: once RunLive returns, plain or
// router-fronted, every goroutine it started (servers, connections,
// agents, the router, the replay and the generators) has exited.
func TestLiveRunLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet skipped in -short")
	}
	p := compiled(t, liveScenario())
	for _, opts := range []LiveOptions{
		{TimeScale: 0.02},
		{TimeScale: 0.02, Router: true, Heartbeat: 50 * time.Millisecond},
	} {
		base := settledGoroutines()
		if _, err := p.RunLive(opts); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	}
}

// waitGoroutines waits up to 2s for the goroutine count to fall to want,
// failing with every goroutine's stack if it does not.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settledGoroutines is the goroutine count once those left over from
// earlier tests have exited: two samples 20ms apart agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestReplayKeepsScriptedFaultState: the live replay derives a node's
// injector from all of its scripted state, as the sim does. A chaos
// window that ends while the node is failed leaves it failed, and a
// repair inside a chaos window brings the chaos back.
func TestReplayKeepsScriptedFaultState(t *testing.T) {
	ln, err := startLiveNode("fog0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.ep.Close()
	defer ln.srv.Close()
	fleet := map[string]*liveNode{"fog0": ln}
	replay := func(ops ...op) {
		// Every op is already due: the replay applies them in order now.
		replayOps(fleet, ops, 1, func(float64) time.Time { return time.Time{} }, make(chan struct{}))
	}
	invoke := func() error {
		c, err := wire.Dial(ln.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err = c.InvokeContext(ctx, "echo", []byte("x"))
		return err
	}
	errAll := fault.ChaosSpec{ErrProb: 1, Seed: 1}

	// cascading-failure's fog0: chaos from 5 to 13, failed from 8 to 16.
	replay(op{at: 5, kind: opChaosOn, node: "fog0", chaos: errAll},
		op{at: 8, kind: opFail, node: "fog0"},
		op{at: 13, kind: opChaosOff, node: "fog0"})
	if err := invoke(); err == nil || strings.Contains(err.Error(), "injected") {
		t.Fatalf("after chaos-off on a failed node: invoke gave %v, want the failed node's dropped connection", err)
	}
	if !ln.paused.Load() {
		t.Fatal("the failed origin generates again")
	}
	replay(op{at: 16, kind: opRepair, node: "fog0"})
	if err := invoke(); err != nil {
		t.Fatalf("after the repair: %v", err)
	}

	// A repair inside a chaos window.
	replay(op{at: 20, kind: opChaosOn, node: "fog0", chaos: errAll},
		op{at: 21, kind: opFail, node: "fog0"},
		op{at: 22, kind: opRepair, node: "fog0"})
	if err := invoke(); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("after a repair inside a chaos window: invoke gave %v, want the chaos's injected error", err)
	}
}
