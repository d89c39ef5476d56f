package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestExampleValidatesAndRuns(t *testing.T) {
	s := Example()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if r.MeanLat <= 0 || r.Joules <= 0 {
		t.Fatalf("degenerate report %+v", r)
	}
	out := r.Table().String()
	if !strings.Contains(out, "metro-iot") || !strings.Contains(out, "completed") {
		t.Fatalf("table rendering: %s", out)
	}
}

func TestParseRoundTrip(t *testing.T) {
	b, err := json.Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "metro-iot" || len(s.Nodes) != 4 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func mutate(t *testing.T, f func(*Scenario)) error {
	t.Helper()
	s := Example()
	f(s)
	return s.Validate()
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Scenario)
	}{
		{"no nodes", func(s *Scenario) { s.Nodes = nil }},
		{"empty node name", func(s *Scenario) { s.Nodes[0].Name = "" }},
		{"duplicate node", func(s *Scenario) { s.Nodes[1].Name = s.Nodes[0].Name }},
		{"bad class", func(s *Scenario) { s.Nodes[0].Class = "mainframe" }},
		{"dangling link", func(s *Scenario) { s.Links[0].A = "ghost" }},
		{"no workload", func(s *Scenario) { s.Stream = nil }},
		{"both workloads", func(s *Scenario) {
			s.DAG = &DAGJSON{Generator: "chain", Scheduler: "heft"}
		}},
		{"bad policy", func(s *Scenario) { s.Stream.Policy = "oracle" }},
		{"bad origin", func(s *Scenario) { s.Stream.Origins = []string{"ghost"} }},
		{"zero rate", func(s *Scenario) { s.Stream.RatePerOrigin = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := mutate(t, tc.f); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

func TestDAGScenarioRuns(t *testing.T) {
	s := Example()
	s.Stream, s.Events = nil, nil
	s.DAG = &DAGJSON{Generator: "montage", Size: 8, Scheduler: "heft", MeanWork: 1e10, MeanBytes: 1e6}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// montage-8: 8 + 7 + 1 + 8 + 1 = 25 tasks
	if r.Completed != 25 {
		t.Fatalf("Completed = %d, want 25", r.Completed)
	}
	if r.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestAllGeneratorsAndSchedulersRun(t *testing.T) {
	for _, gen := range []string{"chain", "fanoutin", "layered", "montage", "epigenomics", "cybershake"} {
		for _, sched := range []string{"heft", "cpop", "greedy", "roundrobin", "random"} {
			s := Example()
			s.Stream, s.Events = nil, nil
			s.DAG = &DAGJSON{Generator: gen, Size: 6, Scheduler: sched}
			r, err := s.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", gen, sched, err)
			}
			if r.Completed == 0 {
				t.Fatalf("%s/%s completed nothing", gen, sched)
			}
		}
	}
}

func TestAllPoliciesRun(t *testing.T) {
	for _, pol := range []string{
		"edge-only", "cloud-only", "greedy-latency", "greedy-energy",
		"greedy-cost", "data-aware", "round-robin", "random",
	} {
		s := Example()
		s.Stream.Policy = pol
		s.Stream.Horizon = 3
		r, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if r.Completed == 0 {
			t.Fatalf("%s completed nothing", pol)
		}
	}
}

func TestRunTracedReturnsEvents(t *testing.T) {
	s := Example()
	s.Stream.Horizon = 3
	r, tr, err := s.RunTraced()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if tr == nil || len(tr.Entities()) == 0 {
		t.Fatal("no trace events from a traced run")
	}
	if g := tr.Gantt(30); g == "" {
		t.Fatal("empty gantt from traced run")
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func() *Report {
		s := Example()
		s.Stream.Horizon = 5
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.MeanLat != b.MeanLat || a.Joules != b.Joules {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
