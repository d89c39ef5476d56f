package scenario

import (
	"strings"
	"testing"

	"continuum/internal/workload"
)

// eventScenario returns a small stream scenario to hang event scripts
// off: three gateways, a fog, and a cloud.
func eventScenario() *Scenario {
	s := Example()
	s.Events = nil
	s.Nodes = append(s.Nodes, NodeJSON{
		Name: "gw2", Class: "gateway", Cores: 4, CoreFlops: 2.5e9,
		MemBytes: 4 << 30, IdleWatts: 2, ActiveWatts: 3,
	})
	s.Links = append(s.Links, LinkJSON{A: "gw2", B: "fog", Latency: 0.002, Capacity: 1.25e8})
	return s
}

func compileOk(t *testing.T, s *Scenario) []op {
	t.Helper()
	ops, err := s.compile(workload.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestCompileFailWithAutoRecover(t *testing.T) {
	s := eventScenario()
	s.Events = []EventJSON{{At: 5, Kind: "fail", Target: "fog", For: 3}}
	ops := compileOk(t, s)
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want fail+repair", len(ops))
	}
	if ops[0].kind != opFail || ops[0].at != 5 || ops[0].node != "fog" {
		t.Fatalf("fail op: %+v", ops[0])
	}
	if ops[1].kind != opRepair || ops[1].at != 8 {
		t.Fatalf("repair op: %+v", ops[1])
	}
}

func TestCompileGlobAndClassTargets(t *testing.T) {
	s := eventScenario()
	s.Events = []EventJSON{{At: 1, Kind: "fail", Target: "gw*"}}
	if got := len(compileOk(t, s)); got != 3 {
		t.Fatalf("glob gw* matched %d nodes, want 3", got)
	}
	s.Events = []EventJSON{{At: 1, Kind: "fail", Target: "class:gateway"}}
	if got := len(compileOk(t, s)); got != 3 {
		t.Fatalf("class:gateway matched %d nodes, want 3", got)
	}
}

func TestCompileCascadeStaggersAndIsSeedDeterministic(t *testing.T) {
	s := eventScenario()
	s.Events = []EventJSON{{At: 10, Kind: "cascade", Target: "gw*", Count: 2, Spacing: 0.5, For: 2}}
	ops := compileOk(t, s)
	if len(ops) != 4 {
		t.Fatalf("got %d ops, want 2 victims x (fail+repair)", len(ops))
	}
	var fails []op
	for _, o := range ops {
		if o.kind == opFail {
			fails = append(fails, o)
		}
	}
	if len(fails) != 2 || fails[0].at != 10 || fails[1].at != 10.5 {
		t.Fatalf("cascade fails: %+v", fails)
	}
	if fails[0].node == fails[1].node {
		t.Fatal("cascade picked the same victim twice")
	}
	// Same RNG seed, same victims; the draw is part of the scenario seed.
	again, _ := s.compile(workload.NewRNG(1))
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatalf("cascade not deterministic: %+v vs %+v", ops[i], again[i])
		}
	}
}

func TestCompileChaosParsesSharedGrammar(t *testing.T) {
	s := eventScenario()
	s.Events = []EventJSON{{At: 2, Kind: "chaos", Target: "fog", Spec: "err=0.2,delay=10ms,delayp=0.5", For: 5}}
	ops := compileOk(t, s)
	if len(ops) != 2 || ops[0].kind != opChaosOn || ops[1].kind != opChaosOff {
		t.Fatalf("chaos ops: %+v", ops)
	}
	if ops[0].chaos.ErrProb != 0.2 || ops[0].chaos.DelayProb != 0.5 {
		t.Fatalf("chaos spec not parsed: %+v", ops[0].chaos)
	}
	if ops[0].chaos.Seed == 0 {
		t.Fatal("chaos seed not derived (live Chaos would seed from the clock)")
	}
}

func TestCompileLinkAndWorkloadOps(t *testing.T) {
	s := eventScenario()
	s.Events = []EventJSON{
		{At: 4, Kind: "degrade-link", Target: "fog->cloud", Factor: 10},
		{At: 6, Kind: "restore-link", Target: "cloud -> fog"}, // either direction, spaces ok
		{At: 1, Kind: "workload", Factor: 2.5},
	}
	ops := compileOk(t, s)
	if ops[0].kind != opWorkload || ops[0].at != 1 || ops[0].factor != 2.5 {
		t.Fatalf("ops not time-sorted or workload wrong: %+v", ops[0])
	}
	if ops[1].kind != opLink || ops[1].factor != 10 || ops[1].link.A != "fog" || ops[1].link.B != "cloud" {
		t.Fatalf("degrade op: %+v", ops[1])
	}
	if ops[2].kind != opLink || ops[2].factor != 1 {
		t.Fatalf("restore op: %+v", ops[2])
	}
	if ph := phases(ops); len(ph) != 1 || ph[0].Start != 1 || ph[0].Factor != 2.5 {
		t.Fatalf("phases: %+v", ph)
	}
}

// TestEventValidationErrors covers every event error path with its
// positional message.
// TestCompileLeaveJoin: leave expands to opLeave (+opJoin with "for"),
// join to opJoin, and leaving every node is rejected — the federation
// analogue of the cordon-everything guard.
func TestCompileLeaveJoin(t *testing.T) {
	s := eventScenario()
	s.Events = []EventJSON{
		{At: 2, Kind: "leave", Target: "gw1", For: 3},
		{At: 7, Kind: "join", Target: "gw1"},
	}
	ops := compileOk(t, s)
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want leave+join+join", len(ops))
	}
	if ops[0].kind != opLeave || ops[0].at != 2 || ops[0].node != "gw1" {
		t.Fatalf("leave op: %+v", ops[0])
	}
	if ops[1].kind != opJoin || ops[1].at != 5 {
		t.Fatalf("auto-rejoin op: %+v", ops[1])
	}
	if ops[2].kind != opJoin || ops[2].at != 7 {
		t.Fatalf("explicit join op: %+v", ops[2])
	}

	s.Events = []EventJSON{{At: 1, Kind: "leave", Target: "*"}}
	if _, err := s.compile(workload.NewRNG(1)); err == nil || !strings.Contains(err.Error(), "empty the fleet") {
		t.Fatalf("leave-everything: %v", err)
	}
}

func TestEventValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		ev   EventJSON
		want string
	}{
		{"negative at", EventJSON{At: -1, Kind: "fail", Target: "fog"}, "events[0]: at"},
		{"negative for", EventJSON{At: 1, Kind: "fail", Target: "fog", For: -2}, "events[0]: for"},
		{"unknown kind", EventJSON{At: 1, Kind: "explode", Target: "fog"}, "unknown kind"},
		{"empty target", EventJSON{At: 1, Kind: "fail"}, "target required"},
		{"no match", EventJSON{At: 1, Kind: "fail", Target: "ghost*"}, "matches no node"},
		{"bad class", EventJSON{At: 1, Kind: "fail", Target: "class:mainframe"}, "unknown node class"},
		{"bad glob", EventJSON{At: 1, Kind: "fail", Target: "[a-"}, "bad target pattern"},
		{"negative spacing", EventJSON{At: 1, Kind: "cascade", Target: "gw*", Spacing: -1}, "spacing"},
		{"chaos no spec", EventJSON{At: 1, Kind: "chaos", Target: "fog"}, "needs a spec"},
		{"chaos bad spec", EventJSON{At: 1, Kind: "chaos", Target: "fog", Spec: "frob=1"}, "unknown key"},
		{"bad link target", EventJSON{At: 1, Kind: "degrade-link", Target: "fog", Factor: 2}, `not "a->b"`},
		{"unknown link", EventJSON{At: 1, Kind: "degrade-link", Target: "gw0->cloud", Factor: 2}, "not defined"},
		{"degrade no factor", EventJSON{At: 1, Kind: "degrade-link", Target: "fog->cloud"}, "factor > 0"},
		{"workload no factor", EventJSON{At: 1, Kind: "workload"}, "factor > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := eventScenario()
			s.Events = []EventJSON{tc.ev}
			err := s.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "events[0]") {
				t.Fatalf("error %q is not positional", err)
			}
		})
	}
}

func TestWorkloadEventNeedsStream(t *testing.T) {
	s := eventScenario()
	s.Stream = nil
	s.DAG = &DAGJSON{Generator: "chain", Size: 4, Scheduler: "heft"}
	s.Events = []EventJSON{{At: 1, Kind: "workload", Factor: 2}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "stream workload") {
		t.Fatalf("workload event on DAG scenario: %v", err)
	}
}

func TestCyclingChaosOnDAGNeedsBound(t *testing.T) {
	s := eventScenario()
	s.Stream = nil
	s.DAG = &DAGJSON{Generator: "chain", Size: 4, Scheduler: "heft"}
	s.Events = []EventJSON{{At: 1, Kind: "chaos", Target: "fog", Spec: "err=0.1,up=5s,down=1s"}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cycling chaos") {
		t.Fatalf("unbounded cycling chaos on DAG accepted: %v", err)
	}
	// Bounded via For: fine.
	s.Events[0].For = 10
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Bounded via a later chaos-off: fine.
	s.Events[0].For = 0
	s.Events = append(s.Events, EventJSON{At: 20, Kind: "chaos-off", Target: "fog"})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidatePositionalErrors pins the satellite fix: bad inputs that
// used to panic or fail only at Run time now fail Validate with
// positional messages.
func TestValidatePositionalErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Scenario)
		want string
	}{
		{"empty node name", func(s *Scenario) { s.Nodes[0].Name = "" }, "nodes[0]"},
		{"duplicate node", func(s *Scenario) { s.Nodes[1].Name = s.Nodes[0].Name }, "nodes[1]"},
		{"bad class", func(s *Scenario) { s.Nodes[1].Class = "mainframe" }, "nodes[1]"},
		{"zero cores", func(s *Scenario) { s.Nodes[2].Cores = 0 }, "nodes[2]"},
		{"bad accel kind", func(s *Scenario) { s.Nodes[2].Accel = &AccelJSON{Kind: "quantum", Count: 1, Flops: 1, Watts: 1} }, "nodes[2]"},
		{"dangling link A", func(s *Scenario) { s.Links[1].A = "ghost" }, "links[1]"},
		{"dangling link B", func(s *Scenario) { s.Links[2].B = "ghost" }, "links[2]"},
		{"self link", func(s *Scenario) { s.Links[0].B = s.Links[0].A }, "links[0]"},
		{"negative latency", func(s *Scenario) { s.Links[0].Latency = -1 }, "links[0]"},
		{"zero capacity", func(s *Scenario) { s.Links[1].Capacity = 0 }, "links[1]"},
		{"bad origin", func(s *Scenario) { s.Stream.Origins = []string{"gw0", "ghost"} }, "origins[1]"},
		{"negative retries", func(s *Scenario) { s.Retries = -1 }, "retries"},
		{"outsized dag", func(s *Scenario) {
			s.Stream = nil
			s.DAG = &DAGJSON{Generator: "montage", Size: 1 << 62, Scheduler: "heft"}
		}, "dag: size 4611686018427387904 exceeds 65536"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := eventScenario()
			tc.f(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not locate the problem at %q", err, tc.want)
			}
		})
	}
}

// TestEventedRunExercisesAllMechanisms runs a scenario whose script hits
// every op kind on the sim backend and checks the report reflects it.
func TestEventedRunExercisesAllMechanisms(t *testing.T) {
	s := eventScenario()
	s.Seed = 9
	s.Stream.RatePerOrigin = 20
	s.Stream.Origins = []string{"gw0", "gw1", "gw2"}
	s.Stream.Horizon = 20
	s.Events = []EventJSON{
		{At: 2, Kind: "chaos", Target: "fog", Spec: "drop=0.3,delay=2ms,delayp=0.5", For: 10},
		{At: 4, Kind: "workload", Factor: 3},
		{At: 5, Kind: "cascade", Target: "gw*", Count: 2, Spacing: 0.5, For: 4},
		{At: 8, Kind: "degrade-link", Target: "fog->cloud", Factor: 5},
		{At: 12, Kind: "restore-link", Target: "fog->cloud"},
		{At: 14, Kind: "workload", Factor: 1},
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if r.Backend != "sim" {
		t.Fatalf("backend %q", r.Backend)
	}
	if r.Retries == 0 {
		t.Fatal("no retries despite drops and failures")
	}
	if r.Suppressed == 0 {
		t.Fatal("no suppressed submissions despite failed origins")
	}
	if r.Lost > r.Completed/10 {
		t.Fatalf("excessive loss: %d lost vs %d completed", r.Lost, r.Completed)
	}
}

// TestFlashCrowdRaisesThroughput checks the workload op actually changes
// the arrival process: tripling the rate mid-run must yield more jobs
// than the unmodulated baseline.
func TestFlashCrowdRaisesThroughput(t *testing.T) {
	base := eventScenario()
	base.Stream.Horizon = 10
	r0, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	crowd := eventScenario()
	crowd.Stream.Horizon = 10
	crowd.Events = []EventJSON{{At: 2, Kind: "workload", Factor: 4}}
	r1, err := crowd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Completed <= r0.Completed {
		t.Fatalf("flash crowd did not raise throughput: %d vs baseline %d", r1.Completed, r0.Completed)
	}
}
