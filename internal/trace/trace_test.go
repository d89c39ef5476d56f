package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleTrace() *Tracer {
	t := New(0)
	t.Record(0, 2, KindTask, "gw", "a", 0)
	t.Record(1, 5, KindTask, "cloud", "b", 0)
	t.Record(6, 8, KindTask, "gw", "c", 0)
	return t
}

func TestRecordAndFilter(t *testing.T) {
	tr := sampleTrace()
	tr.Record(3, 3, KindFailure, "cloud", "b", 0)
	if tr.n != 4 {
		t.Fatalf("Len = %d", tr.n)
	}
	tasks := tr.Filter(KindTask)
	if len(tasks) != 3 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if tasks[0].Service != "gw" || tasks[1].Service != "cloud" {
		t.Fatal("filter order broken")
	}
	// Virtual seconds become nanoseconds from a virtual epoch of 0.
	if tasks[1].Start != 1e9 || tasks[1].End != 5e9 {
		t.Fatalf("task b spans [%d, %d] ns, want [1e9, 5e9]", tasks[1].Start, tasks[1].End)
	}
	if f := tr.Filter(KindFailure); len(f) != 1 || f[0].Start != f[0].End {
		t.Fatalf("failure instants = %+v, want one with Start == End", f)
	}
	// Spans past the first chunk keep emission order.
	big := New(0)
	for i := range 2*chunkSpans + 1 {
		big.Record(float64(i), float64(i), KindDispatch, "n", "", i)
	}
	got := big.Filter(KindDispatch)
	if len(got) != 2*chunkSpans+1 {
		t.Fatalf("%d spans over three chunks, want %d", len(got), 2*chunkSpans+1)
	}
	for i, sp := range got {
		if sp.Attempt != i {
			t.Fatalf("span %d is attempt %d", i, sp.Attempt)
		}
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(1, 2, KindTask, "x", "", 0) // must not panic
	tr.Add(Span{Kind: KindTask})
}

func TestLimitDropsNewest(t *testing.T) {
	tr := New(2)
	tr.Record(1, 1, KindDispatch, "a", "", 0)
	tr.Record(2, 2, KindDispatch, "b", "", 0)
	tr.Add(Span{Service: "c", Kind: KindDispatch})
	if tr.n != 2 || tr.Dropped != 1 {
		t.Fatalf("len=%d dropped=%d", tr.n, tr.Dropped)
	}
	if tr.at(0).Service != "a" {
		t.Fatal("oldest span lost")
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
	lo, hi := tr.bounds()
	if lo != 0 || hi != 8e9 {
		t.Fatalf("bounds = %v,%v", lo, hi)
	}
	empty := New(0)
	lo, hi = empty.bounds()
	if lo != 0 || hi != 0 {
		t.Fatal("empty bounds not zero")
	}
}

// TestBusyIntervals: a Gantt lane marks exactly the buckets a task span
// of its service covers, one second per column here.
func TestBusyIntervals(t *testing.T) {
	tr := sampleTrace()
	tr.Record(4, 4, KindFailure, "edge", "x", 0) // no task: no lane
	want := "" +
		"cloud |.#####..|\n" +
		"gw    |###...##|\n" +
		"       0.00s 8.00s\n"
	if got := tr.Gantt(8); got != want {
		t.Fatalf("gantt:\n%s\nwant:\n%s", got, want)
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

// TestJSONLRoundTrip: a simulator trace written as the span file reads
// back through ReadSpans span for span.
func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	tr.Add(Span{Service: "gw", Name: "d", Kind: KindTask, Attempt: 1, Start: 9, End: 12, Err: "lost"})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != tr.n {
		t.Fatalf("round trip %d != %d", len(back), tr.n)
	}
	for i, sp := range back {
		if !reflect.DeepEqual(sp, tr.at(i)) {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, *sp, *tr.at(i))
		}
	}
}

// TestJSONLAttemptRoundTrip: attempt 0 and the empty trace and span IDs
// of a simulated span are omitted from the file; non-zero attempts
// survive the round trip.
func TestJSONLAttemptRoundTrip(t *testing.T) {
	tr := New(0)
	tr.Record(0, 1, KindTask, "gw", "j", 0)
	tr.Record(2, 3, KindTask, "gw", "j", 1)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("span file:\n%s\nwant [, two spans, ]", buf.String())
	}
	if strings.Contains(lines[1], "attempt") || strings.Contains(lines[1], `"trace"`) || strings.Contains(lines[1], `"span"`) {
		t.Fatalf("zero fields serialized: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"attempt":1`) {
		t.Fatalf("attempt 1 lost: %s", lines[2])
	}
	back, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range back {
		if !reflect.DeepEqual(sp, tr.at(i)) {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, *sp, *tr.at(i))
		}
	}
}

// TestGanttGoldenNarrow pins the exact rendering of a small fixed trace
// at a width too narrow to fit both axis labels — the regression case
// where the footer pad went negative and left-shifted the end label.
func TestGanttGoldenNarrow(t *testing.T) {
	tr := New(0)
	tr.Record(0, 8, KindTask, "gw", "a", 0)
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
