package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"continuum/internal/trace"
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
	p, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Scenario; s.Name != "metro-iot" || len(s.Nodes) != 4 {
		t.Fatalf("parsed %+v", s)
	}
}

// FuzzParse: no input makes Parse panic, and an accepted scenario is a
// fixed point of a marshal round trip: marshalling it, parsing that and
// marshalling again gives the same bytes.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	example, err := json.Marshal(Example())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Parse(raw)
		if err != nil {
			return
		}
		once, err := json.Marshal(p.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Parse(once)
		if err != nil {
			t.Fatalf("accepted scenario rejected after a marshal round trip: %v\n%s", err, once)
		}
		twice, err := json.Marshal(q.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("marshal round trip is not a fixed point:\n%s\n%s", once, twice)
		}
	})
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

// TestSimTraceFileReadsBack: the span file a simulated run writes
// (scenario run -trace) is the live path's format, and trace.ReadSpans
// reads it back span for span.
func TestSimTraceFileReadsBack(t *testing.T) {
	_, tr, err := goldenScenarios(t)["cascading-failure"].RunTraced()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[trace.SpanKind][]trace.Span{}
	for _, sp := range back {
		byKind[sp.Kind] = append(byKind[sp.Kind], *sp)
	}
	errs := 0
	for kind, got := range byKind {
		if want := tr.Filter(kind); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s spans read back differ: %d read, %d recorded", kind, len(got), len(want))
		}
		for _, sp := range got {
			if sp.Err != "" {
				errs++
			}
		}
	}
	if len(byKind[trace.KindTask]) == 0 || errs == 0 {
		t.Fatalf("read back %d task spans and %d with an error; want both", len(byKind[trace.KindTask]), errs)
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
