package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

func sampleTrace() *Tracer {
	t := New(0)
	t.Record(0, TaskStart, "gw", "a")
	t.Record(2, TaskEnd, "gw", "a")
	t.Record(1, TaskStart, "cloud", "b")
	t.Record(5, TaskEnd, "cloud", "b")
	t.Record(6, TaskStart, "gw", "c")
	t.Record(8, TaskEnd, "gw", "c")
	return t
}

func TestRecordAndFilter(t *testing.T) {
	tr := sampleTrace()
	if len(tr.events) != 6 {
		t.Fatalf("Len = %d", len(tr.events))
	}
	starts := tr.Filter(TaskStart)
	if len(starts) != 3 {
		t.Fatalf("starts = %d", len(starts))
	}
	if starts[0].Entity != "gw" || starts[1].Entity != "cloud" {
		t.Fatal("filter order broken")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(1, TaskStart, "x", "") // must not panic
}

func TestLimitDropsNewest(t *testing.T) {
	tr := New(2)
	tr.Record(1, TaskStart, "a", "")
	tr.Record(2, TaskStart, "b", "")
	tr.Record(3, TaskStart, "c", "")
	if len(tr.events) != 2 || tr.Dropped != 1 {
		t.Fatalf("len=%d dropped=%d", len(tr.events), tr.Dropped)
	}
	if tr.events[0].Entity != "a" {
		t.Fatal("oldest event lost")
	}
}

func TestEntitiesSorted(t *testing.T) {
	tr := sampleTrace()
	ents := tr.Entities()
	if len(ents) != 2 || ents[0] != "cloud" || ents[1] != "gw" {
		t.Fatalf("Entities = %v", ents)
	}
}

func TestSpan(t *testing.T) {
	tr := sampleTrace()
	lo, hi := tr.Span()
	if lo != 0 || hi != 8 {
		t.Fatalf("Span = %v,%v", lo, hi)
	}
	empty := New(0)
	lo, hi = empty.Span()
	if lo != 0 || hi != 0 {
		t.Fatal("empty span not zero")
	}
}

func TestBusyIntervals(t *testing.T) {
	tr := sampleTrace()
	want := map[string][][2]float64{
		"gw":    {{0, 2}, {6, 8}},
		"cloud": {{1, 5}},
	}
	for ent, w := range want {
		if got := tr.busyIntervals(ent); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s busy intervals = %v, want %v", ent, got, w)
		}
	}
}

func TestBusyIntervalsNestedTasks(t *testing.T) {
	tr := New(0)
	// Two overlapping tasks on one node: busy [0,4] once, not twice.
	tr.Record(0, TaskStart, "n", "a")
	tr.Record(1, TaskStart, "n", "b")
	tr.Record(3, TaskEnd, "n", "a")
	tr.Record(4, TaskEnd, "n", "b")
	if got := tr.busyIntervals("n"); !reflect.DeepEqual(got, [][2]float64{{0, 4}}) {
		t.Fatalf("nested busy intervals = %v, want [[0 4]]", got)
	}
}

func TestUnmatchedStartExtendsToEnd(t *testing.T) {
	tr := New(0)
	tr.Record(0, TaskStart, "n", "a")
	tr.Record(10, TaskEnd, "m", "other") // extends span to 10
	if got := tr.busyIntervals("n"); !reflect.DeepEqual(got, [][2]float64{{0, 10}}) {
		t.Fatalf("cut-off busy intervals = %v, want [[0 10]]", got)
	}
}

func TestGantt(t *testing.T) {
	tr := sampleTrace()
	g := tr.Gantt(16)
	if !strings.Contains(g, "gw") || !strings.Contains(g, "cloud") {
		t.Fatalf("gantt missing lanes:\n%s", g)
	}
	if !strings.Contains(g, "#") || !strings.Contains(g, ".") {
		t.Fatalf("gantt missing marks:\n%s", g)
	}
	if New(0).Gantt(10) != "" {
		t.Fatal("empty gantt not empty")
	}
}

func TestGanttPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width accepted")
		}
	}()
	sampleTrace().Gantt(0)
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.events) != len(tr.events) {
		t.Fatalf("round trip %d != %d", len(back.events), len(tr.events))
	}
	for i, e := range back.events {
		if e != tr.events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, e, tr.events[i])
		}
	}
}

func TestJSONLAttemptRoundTrip(t *testing.T) {
	tr := New(0)
	tr.RecordAttempt(0, TaskStart, "gw", "j", 0)
	tr.RecordAttempt(1, Failure, "gw", "j lost", 0)
	tr.RecordAttempt(2, TaskStart, "gw", "j", 1)
	tr.RecordAttempt(3, TaskEnd, "gw", "j", 1)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Attempt 0 must be omitted from the wire form (old readers keep
	// working); non-zero attempts must survive the round trip.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if strings.Contains(lines[0], "attempt") {
		t.Fatalf("attempt 0 serialized: %s", lines[0])
	}
	if !strings.Contains(lines[2], `"attempt":1`) {
		t.Fatalf("attempt 1 lost: %s", lines[2])
	}
	back, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range back.events {
		if e != tr.events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, e, tr.events[i])
		}
	}
}

// TestGanttGoldenNarrow pins the exact rendering of a small fixed trace
// at a width too narrow to fit both axis labels — the regression case
// where the footer pad went negative and left-shifted the end label.
func TestGanttGoldenNarrow(t *testing.T) {
	tr := New(0)
	tr.Record(0, TaskStart, "gw", "a")
	tr.Record(8, TaskEnd, "gw", "a")
	got := tr.Gantt(4)
	want := "" +
		"gw |####|\n" +
		"    0.00s 8.00s\n"
	if got != want {
		t.Fatalf("golden mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
	// Wide enough to fit both labels: hi right-aligns to the lane edge.
	got = tr.Gantt(16)
	want = "" +
		"gw |################|\n" +
		"    0.00s      8.00s\n"
	if got != want {
		t.Fatalf("golden mismatch (wide):\ngot:\n%q\nwant:\n%q", got, want)
	}
	// At any width the axis keeps both labels, in order, separated by at
	// least one space (the old negative pad glued or reordered them).
	for _, w := range []int{1, 2, 3, 5, 9, 12} {
		lines := strings.Split(strings.TrimRight(tr.Gantt(w), "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("width %d: %d lines", w, len(lines))
		}
		if !strings.Contains(lines[1], "0.00s ") || !strings.HasSuffix(lines[1], "8.00s") {
			t.Fatalf("width %d: malformed axis %q", w, lines[1])
		}
	}
}

// readJSONL loads events written by WriteJSONL into a fresh tracer.
func readJSONL(r io.Reader) (*Tracer, error) {
	t := New(0)
	for dec := json.NewDecoder(r); dec.More(); {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, err
		}
		t.events = append(t.events, e)
	}
	return t, nil
}
