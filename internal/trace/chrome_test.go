package trace_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"continuum/internal/core"
	"continuum/internal/fault"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/trace"
)

// chromeEvent mirrors the subset of the trace-event format Perfetto and
// chrome://tracing require: a traceEvents array whose entries carry
// name/ph/ts/pid/tid, with complete events ("X") adding a non-negative
// dur. The schema assertions here are the acceptance gate for
// continuum-sim scenario run -chrome-trace.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Cat   string         `json:"cat"`
	Ts    *float64       `json:"ts"`
	Dur   *float64       `json:"dur"`
	Pid   *int           `json:"pid"`
	Tid   *int           `json:"tid"`
	Args  map[string]any `json:"args"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func exportAndParse(t *testing.T, tr *trace.Tracer) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

// slices returns the exported task slices of one service.
func (d chromeDoc) slices(service string) []chromeEvent {
	tid := -1
	for _, e := range d.TraceEvents {
		if e.Phase == "M" && e.Args["name"] == service {
			tid = *e.Tid
		}
	}
	var out []chromeEvent
	for _, e := range d.TraceEvents {
		if e.Phase == "X" && *e.Tid == tid && e.Cat == string(trace.KindTask) {
			out = append(out, e)
		}
	}
	return out
}

// sameMicros reports whether two exported times agree to the nanosecond
// a Span carries.
func sameMicros(a, b float64) bool { return math.Abs(a-b) <= 1e-3 }

func attemptOf(t *testing.T, e chromeEvent) int {
	t.Helper()
	a, ok := e.Args["attempt"].(float64)
	if !ok {
		t.Fatalf("event without attempt arg: %+v", e)
	}
	return int(a)
}

// pinFirst places every job on the first eligible candidate, so a test
// decides which node runs what.
type pinFirst struct{}

func (pinFirst) Name() string { return "pin-first" }
func (pinFirst) Select(env *placement.Env, req placement.Request) *node.Node {
	if cands := env.Candidates(); len(cands) > 0 {
		return cands[0]
	}
	return nil
}

// twoGateways builds two gateway-class nodes of the given core count.
func twoGateways(cores int) *core.Continuum {
	c := core.New()
	for _, name := range []string{"n1", "n2"} {
		spec := node.Catalog()["gateway"]
		spec.Name, spec.Cores = name, cores
		c.AddNode(spec)
	}
	c.Connect(c.Nodes[0].ID, c.Nodes[1].ID, 0.020, 1.25e9)
	c.Tracer = trace.New(0)
	return c
}

func TestChromeTraceSchema(t *testing.T) {
	tr := trace.New(0)
	tr.Record(0, 2, trace.KindTask, "gw", "a", 0)
	tr.Record(1, 5, trace.KindTask, "cloud", "b", 0)
	tr.Record(6, 8, trace.KindTask, "gw", "c", 0)
	tr.Record(3, 3, trace.KindFailure, "cloud", "b lost", 0)
	doc := exportAndParse(t, tr)

	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Phase == "" {
			t.Fatalf("event missing name/ph: %+v", e)
		}
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing pid/tid: %+v", e)
		}
		if e.Phase != "M" && e.Ts == nil {
			t.Fatalf("non-metadata event missing ts: %+v", e)
		}
		if e.Phase == "X" {
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("complete event with missing/negative dur: %+v", e)
			}
		}
		phases[e.Phase]++
	}
	// 3 task spans -> 3 X events; failure -> 1 instant; 2 entities -> 2
	// thread_name metadata events.
	if phases["X"] != 3 || phases["i"] != 1 || phases["M"] != 2 {
		t.Fatalf("phase counts = %v, want X:3 i:1 M:2", phases)
	}
}

// TestChromeTraceOverlappingTasksLastTheirExecTime: equal jobs that
// overlap on one multi-core node each export as a slice lasting the
// node's execution time, however their starts and ends interleave.
func TestChromeTraceOverlappingTasksLastTheirExecTime(t *testing.T) {
	c := twoGateways(4)
	n1 := c.Nodes[0]
	var jobs []core.StreamJob
	for i := 0; i < 4; i++ {
		jobs = append(jobs, core.StreamJob{
			Task:   &task.Task{Name: "job", ScalarWork: 2.5e8, OutputBytes: 10},
			Origin: n1.ID, Submit: 0.01 * float64(i),
		})
	}
	if st := c.RunStream(pinFirst{}, jobs, nil); st.Completed != 4 {
		t.Fatalf("completed %d, want 4", st.Completed)
	}
	want := n1.ExecTime(2.5e8, 0, node.NoAccel) * 1e6
	got := exportAndParse(t, c.Tracer).slices("n1")
	if len(got) != 4 {
		t.Fatalf("%d task slices on n1, want 4", len(got))
	}
	for _, e := range got {
		if !sameMicros(*e.Dur, want) {
			t.Errorf("task slice at %v µs lasts %v µs, want the exec time %v µs", *e.Ts, *e.Dur, want)
		}
	}
}

// TestChromeTraceAttemptAttribution: a job whose first attempt is lost
// to a failure and whose retry succeeds exports one slice per attempt,
// each carrying its attempt number.
func TestChromeTraceAttemptAttribution(t *testing.T) {
	c := twoGateways(1)
	n1 := c.Nodes[0]
	ft := fault.NewTarget("n1")
	c.K.At(0.05, ft.Fail)
	jobs := []core.StreamJob{{Task: &task.Task{Name: "job", ScalarWork: 2.5e8, OutputBytes: 10}, Origin: n1.ID}}
	st := c.RunStreamReliable(pinFirst{}, jobs, nil, core.ReliableOptions{
		MaxRetries: 1, Faults: map[int]*fault.Target{n1.ID: ft},
	})
	if st.Completed != 1 || st.Retries != 1 {
		t.Fatalf("completed %d after %d retries, want 1 after 1", st.Completed, st.Retries)
	}
	doc := exportAndParse(t, c.Tracer)
	first, retry := doc.slices("n1"), doc.slices("n2")
	if len(first) != 1 || len(retry) != 1 {
		t.Fatalf("task slices: %d on n1, %d on n2, want 1 each", len(first), len(retry))
	}
	if a := attemptOf(t, first[0]); a != 0 || first[0].Args["err"] != "lost" {
		t.Errorf("lost attempt exported as attempt %d, err %v; want attempt 0, err lost", a, first[0].Args["err"])
	}
	if a := attemptOf(t, retry[0]); a != 1 || retry[0].Args["err"] != nil {
		t.Errorf("retry exported as attempt %d, err %v; want attempt 1 and no error", a, retry[0].Args["err"])
	}
}

// TestChromeTraceReplicaDurations: under speculation a mouse queued
// behind a whale gets a backup on the idle node. The backup's slice
// lasts its own execution time; the stale primary's runs from its
// handoff to the node until it finishes, when it is preempted.
func TestChromeTraceReplicaDurations(t *testing.T) {
	c := twoGateways(1)
	n1, n2 := c.Nodes[0], c.Nodes[1]
	jobs := []core.StreamJob{
		{Task: &task.Task{Name: "whale", ScalarWork: 12.5e9, OutputBytes: 10}, Origin: n1.ID},
		{Task: &task.Task{Name: "mouse", ScalarWork: 2.5e8, OutputBytes: 10}, Origin: n1.ID, Submit: 0.01},
	}
	st := c.RunStreamReliable(pinFirst{}, jobs, nil, core.ReliableOptions{
		MaxRetries: 1, Speculate: core.SpeculateOptions{Multiple: 2},
	})
	if st.SpeculativeWins != 1 || st.PreemptedTasks != 1 {
		t.Fatalf("speculative wins %d, preempted %d, want 1 and 1", st.SpeculativeWins, st.PreemptedTasks)
	}
	doc := exportAndParse(t, c.Tracer)
	backup := doc.slices("n2")
	if len(backup) != 1 || backup[0].Name != "mouse" || attemptOf(t, backup[0]) != 1 {
		t.Fatalf("n2 slices %+v, want the mouse's backup (attempt 1)", backup)
	}
	if want := n2.ExecTime(2.5e8, 0, node.NoAccel) * 1e6; !sameMicros(*backup[0].Dur, want) {
		t.Errorf("backup slice lasts %v µs, want its exec time %v µs", *backup[0].Dur, want)
	}
	var whale, primary *chromeEvent
	for _, e := range doc.slices("n1") {
		switch e.Name {
		case "whale":
			whale = &e
		case "mouse":
			primary = &e
		}
	}
	if whale == nil || primary == nil || attemptOf(t, *primary) != 0 {
		t.Fatalf("n1 slices: whale %+v, mouse %+v; want both, the mouse as attempt 0", whale, primary)
	}
	mouseEnd := *whale.Ts + *whale.Dur + n1.ExecTime(2.5e8, 0, node.NoAccel)*1e6
	if !sameMicros(*primary.Ts+*primary.Dur, mouseEnd) || *primary.Ts < 0.01*1e6 {
		t.Errorf("primary slice [%v, %v] µs, want from its submission to %v µs", *primary.Ts, *primary.Ts+*primary.Dur, mouseEnd)
	}
}

// TestChromeTracePreemptInstant: the stale primary's discarded delivery
// exports as an instant carrying the losing attempt.
func TestChromeTracePreemptInstant(t *testing.T) {
	c := twoGateways(1)
	n1 := c.Nodes[0]
	jobs := []core.StreamJob{
		{Task: &task.Task{Name: "whale", ScalarWork: 12.5e9, OutputBytes: 10}, Origin: n1.ID},
		{Task: &task.Task{Name: "mouse", ScalarWork: 2.5e8, OutputBytes: 10}, Origin: n1.ID, Submit: 0.01},
	}
	c.RunStreamReliable(pinFirst{}, jobs, nil, core.ReliableOptions{
		MaxRetries: 1, Speculate: core.SpeculateOptions{Multiple: 2},
	})
	var preempts []chromeEvent
	for _, e := range exportAndParse(t, c.Tracer).TraceEvents {
		if e.Phase == "i" && e.Name == string(trace.KindPreempt) {
			preempts = append(preempts, e)
		}
	}
	if len(preempts) != 1 {
		t.Fatalf("%d preempt instants, want 1", len(preempts))
	}
	if a := attemptOf(t, preempts[0]); a != 0 || preempts[0].Args["detail"] != "mouse" {
		t.Fatalf("preempt instant %+v, want the mouse's attempt 0", preempts[0])
	}
}

// TestChromeTraceLostAttemptEndsAtLoss: an attempt whose node fails
// mid-execution exports as one slice that ends when the engine detects
// the loss — at the failure instant it records — and carries the error.
func TestChromeTraceLostAttemptEndsAtLoss(t *testing.T) {
	c := twoGateways(1)
	n1 := c.Nodes[0]
	ft := fault.NewTarget("n1")
	c.K.At(0.05, ft.Fail)
	jobs := []core.StreamJob{{Task: &task.Task{Name: "job", ScalarWork: 2.5e8, OutputBytes: 10}, Origin: n1.ID}}
	c.RunStreamReliable(pinFirst{}, jobs, nil, core.ReliableOptions{
		MaxRetries: 1, Faults: map[int]*fault.Target{n1.ID: ft},
	})
	doc := exportAndParse(t, c.Tracer)
	lost := doc.slices("n1")
	if len(lost) != 1 || lost[0].Args["err"] != "lost" {
		t.Fatalf("n1 slices %+v, want one lost attempt", lost)
	}
	var failures []chromeEvent
	for _, e := range doc.TraceEvents {
		if e.Phase == "i" && e.Name == string(trace.KindFailure) {
			failures = append(failures, e)
		}
	}
	if len(failures) != 1 || failures[0].Args["err"] != "lost" {
		t.Fatalf("failure instants %+v, want one for the lost attempt", failures)
	}
	if end := *lost[0].Ts + *lost[0].Dur; !sameMicros(end, *failures[0].Ts) {
		t.Errorf("lost slice ends at %v µs, the loss is recorded at %v µs", end, *failures[0].Ts)
	}
	if want := n1.ExecTime(2.5e8, 0, node.NoAccel) * 1e6; !sameMicros(*lost[0].Dur, want) {
		t.Errorf("lost slice lasts %v µs, want the %v µs the node ran it", *lost[0].Dur, want)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	c := twoGateways(1)
	c.RunStream(pinFirst{}, []core.StreamJob{
		{Task: &task.Task{Name: "a", ScalarWork: 2.5e8, OutputBytes: 10}, Origin: c.Nodes[0].ID},
		{Task: &task.Task{Name: "b", ScalarWork: 2.5e8, OutputBytes: 10}, Origin: c.Nodes[1].ID, Submit: 0.05},
	}, nil)
	var a, b bytes.Buffer
	if err := c.Tracer.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.Tracer.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || a.String() != b.String() {
		t.Fatal("chrome export not deterministic")
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	doc := exportAndParse(t, trace.New(0))
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace produced %d events", len(doc.TraceEvents))
	}
}
