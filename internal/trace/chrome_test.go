package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// chromeDoc mirrors the subset of the trace-event format Perfetto and
// chrome://tracing require: a traceEvents array whose entries carry
// name/ph/ts/pid/tid, with complete events ("X") adding a non-negative
// dur. The schema assertions here are the acceptance gate for
// continuum-sim scenario run -chrome-trace.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Ts    *float64       `json:"ts"`
		Dur   *float64       `json:"dur"`
		Pid   *int           `json:"pid"`
		Tid   *int           `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func exportAndParse(t *testing.T, tr *Tracer) chromeDoc {
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

func TestChromeTraceSchema(t *testing.T) {
	tr := sampleTrace()
	tr.Record(3, Failure, "cloud", "b lost")
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

func TestChromeTraceAttemptAttribution(t *testing.T) {
	tr := New(0)
	tr.RecordAttempt(0, TaskStart, "gw", "job", 0)
	tr.RecordAttempt(1, Failure, "gw", "job lost", 0)
	tr.RecordAttempt(1, TaskEnd, "gw", "job", 0) // engine closes via lost path at same time
	tr.RecordAttempt(2, TaskStart, "gw", "job", 1)
	tr.RecordAttempt(3, TaskEnd, "gw", "job", 1)
	doc := exportAndParse(t, tr)

	attempts := map[float64]int{}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		a, ok := e.Args["attempt"].(float64)
		if !ok {
			t.Fatalf("X event without attempt arg: %+v", e)
		}
		attempts[a]++
	}
	if attempts[0] != 1 || attempts[1] != 1 {
		t.Fatalf("attempt attribution lost: %v", attempts)
	}
}

// TestChromeTraceInterleavedReplicaPairing covers speculative execution:
// two replicas of one task run concurrently on the SAME entity, and the
// primary (attempt 0) finishes after the backup (attempt 1). Plain LIFO
// pairing would close attempt 0's open with attempt 1's end, yielding a
// 4s and a 1s slice; attempt-preferred pairing must yield the true 2s
// backup slice and 5s primary slice.
func TestChromeTraceInterleavedReplicaPairing(t *testing.T) {
	tr := New(0)
	tr.RecordAttempt(0, TaskStart, "n1", "job", 0) // primary
	tr.RecordAttempt(3, TaskStart, "n1", "job", 1) // backup, same entity
	tr.RecordAttempt(5, TaskEnd, "n1", "job", 1)   // backup wins at 5
	tr.RecordAttempt(8, TaskEnd, "n1", "job", 0)   // stale primary at 8
	doc := exportAndParse(t, tr)

	durByAttempt := map[float64]float64{}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		a, ok := e.Args["attempt"].(float64)
		if !ok {
			t.Fatalf("X event without attempt arg: %+v", e)
		}
		durByAttempt[a] = *e.Dur
	}
	if durByAttempt[1] != 2*1e6 {
		t.Fatalf("backup slice dur = %v µs, want 2e6 (cross-paired with the primary?)", durByAttempt[1])
	}
	if durByAttempt[0] != 8*1e6 {
		t.Fatalf("primary slice dur = %v µs, want 8e6", durByAttempt[0])
	}
}

// TestChromeTracePreemptInstant: the Preempt kind is not a span closer,
// so it must export as an instant carrying the losing attempt.
func TestChromeTracePreemptInstant(t *testing.T) {
	tr := New(0)
	tr.RecordAttempt(1, Preempt, "n1", "job", 2)
	doc := exportAndParse(t, tr)
	for _, e := range doc.TraceEvents {
		if e.Phase == "i" && e.Name == string(Preempt) {
			if a, _ := e.Args["attempt"].(float64); a != 2 {
				t.Fatalf("preempt instant attempt = %v, want 2", a)
			}
			return
		}
	}
	t.Fatal("preempt event missing from export")
}

func TestChromeTraceUnmatchedStartClosesAtEnd(t *testing.T) {
	tr := New(0)
	tr.Record(0, TaskStart, "n", "cut")
	tr.Record(10, TaskEnd, "m", "other") // extends span to 10; "cut" never ends
	doc := exportAndParse(t, tr)
	found := false
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.Name == "cut" {
			found = true
			if *e.Dur != 10*1e6 {
				t.Fatalf("cut-off span dur = %v µs, want 1e7", *e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("unmatched start dropped from export")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	tr := sampleTrace()
	tr.Record(0.5, TaskStart, "gw", "never-ends")
	var a, b bytes.Buffer
	if err := tr.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("chrome export not deterministic")
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	doc := exportAndParse(t, New(0))
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty trace produced %d events", len(doc.TraceEvents))
	}
}
