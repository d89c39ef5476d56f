package scenario

import (
	"strings"
	"testing"
)

// Tests for the cordon/uncordon/drain event kinds and the stream
// priority/admission knobs, on both backends.

func TestCompileCordonAndDrainOps(t *testing.T) {
	s := eventScenario()
	s.Events = []EventJSON{
		{At: 3, Kind: "drain", Target: "gw1", For: 4},
		{At: 5, Kind: "cordon", Target: "fog"},
		{At: 9, Kind: "uncordon", Target: "fog"},
	}
	ops := compileOk(t, s)
	if len(ops) != 4 {
		t.Fatalf("got %d ops, want drain+auto-uncordon+cordon+uncordon", len(ops))
	}
	if ops[0].kind != opCordon || !ops[0].drain || ops[0].node != "gw1" {
		t.Fatalf("drain op: %+v", ops[0])
	}
	if ops[1].kind != opCordon || ops[1].drain || ops[1].node != "fog" {
		t.Fatalf("cordon op: %+v", ops[1])
	}
	if ops[2].kind != opUncordon || ops[2].at != 7 || ops[2].node != "gw1" {
		t.Fatalf("auto-uncordon op: %+v", ops[2])
	}
	if ops[3].kind != opUncordon || ops[3].at != 9 || ops[3].node != "fog" {
		t.Fatalf("scripted uncordon op: %+v", ops[3])
	}
}

func TestCordonValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		ev   EventJSON
		want string
	}{
		{"cordon everything", EventJSON{At: 1, Kind: "cordon", Target: "*"}, "every node"},
		{"drain everything", EventJSON{At: 1, Kind: "drain", Target: "*"}, "every node"},
		{"cordon no target", EventJSON{At: 1, Kind: "cordon"}, "target required"},
		{"uncordon no match", EventJSON{At: 1, Kind: "uncordon", Target: "ghost*"}, "matches no node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := eventScenario()
			s.Events = []EventJSON{tc.ev}
			err := s.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "events[0]") {
				t.Fatalf("error %q: want positional mention of %q", err, tc.want)
			}
		})
	}
}

func TestPriorityValidationErrors(t *testing.T) {
	s := eventScenario()
	s.Stream.Priorities = map[string]int{"ghost": 1}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "not a stream origin") {
		t.Fatalf("unknown priority origin accepted: %v", err)
	}
	s.Stream.Priorities = map[string]int{"gw0": 7}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range priority accepted: %v", err)
	}
	s.Stream.Priorities = map[string]int{"gw0": 1, "gw1": -1}
	s.Stream.Admission = -3
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "admission") {
		t.Fatalf("negative admission accepted: %v", err)
	}
}

// TestSimCordonStopsNewWork: cordoning the fog for the whole run must
// steer every placement elsewhere without losing anything, and the trace
// must carry the cordon/uncordon records.
func TestSimCordonStopsNewWork(t *testing.T) {
	base := eventScenario()
	base.Stream.Horizon = 10
	r0, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r0.PerNode["fog"] == 0 {
		t.Fatal("baseline never used the fog; cordon would be vacuous")
	}

	s := eventScenario()
	s.Stream.Horizon = 10
	s.Events = []EventJSON{{At: 0, Kind: "cordon", Target: "fog", For: 20}}
	r, tr, err := s.RunTraced()
	if err != nil {
		t.Fatal(err)
	}
	if r.PerNode["fog"] != 0 {
		t.Fatalf("cordoned fog still received %d jobs", r.PerNode["fog"])
	}
	if r.Completed == 0 || r.Lost != 0 {
		t.Fatalf("cordon run: %d completed, %d lost", r.Completed, r.Lost)
	}
	if c, u := len(tr.Filter("cordon")), len(tr.Filter("uncordon")); c != 1 || u != 1 {
		t.Fatalf("trace records %d cordon and %d uncordon events, want 1 each", c, u)
	}
}

// TestSimDrainSilencesOrigin: draining a gateway mid-run suppresses its
// submissions (counted, not lost) and sends it no new work.
func TestSimDrainSilencesOrigin(t *testing.T) {
	s := eventScenario()
	s.Stream.RatePerOrigin = 20
	s.Stream.Horizon = 10
	s.Events = []EventJSON{{At: 2, Kind: "drain", Target: "gw0", For: 6}}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Suppressed == 0 {
		t.Fatal("drained origin kept generating")
	}
	if r.Lost != 0 {
		t.Fatalf("drain lost %d requests", r.Lost)
	}
}

// TestSimAdmissionSheds: an overloaded stream under a tight admission
// bound sheds fail-fast (reported in Shed, never Lost), and a
// priority-mixed variant sheds no more high-priority work than the
// uniform one gains.
func TestSimAdmissionSheds(t *testing.T) {
	s := eventScenario()
	s.Stream.RatePerOrigin = 40
	s.Stream.Horizon = 10
	s.Stream.Admission = 8
	s.Stream.Priorities = map[string]int{"gw0": 1, "gw1": -1}
	s.Events = []EventJSON{{At: 1, Kind: "workload", Factor: 4}}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed == 0 {
		t.Fatal("overloaded run shed nothing")
	}
	if r.Lost != 0 {
		t.Fatalf("admission turned shed into loss: %d lost", r.Lost)
	}
	if r.Completed == 0 {
		t.Fatal("admission starved the run completely")
	}
	if r.Completed+r.Shed == 0 || r.Shed <= r.Completed/100 {
		t.Fatalf("bound too loose to exercise shedding: %d shed vs %d completed", r.Shed, r.Completed)
	}
}

// TestLiveCordonDrainZeroLost replays cordon and drain against a real
// fleet: the cordoned endpoint rejects retryably, the client fails over,
// and nothing is lost.
func TestLiveCordonDrainZeroLost(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet skipped in -short")
	}
	s := liveScenario()
	s.Name = "live-cordon"
	s.Stream.Priorities = map[string]int{"gw0": 1, "gw2": -1}
	s.Events = []EventJSON{
		{At: 1, Kind: "cordon", Target: "fog", For: 3},
		{At: 2, Kind: "drain", Target: "gw2", For: 4},
	}
	r, err := compiled(t, s).RunLive(LiveOptions{TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if r.Lost != 0 {
		t.Fatalf("%d requests lost through cordon/drain", r.Lost)
	}
	if r.Suppressed == 0 {
		t.Fatal("drained origin gw2 generated load anyway")
	}
}
