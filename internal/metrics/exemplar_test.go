package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// TestHistogramExemplarsInExposition: a traced observation must surface
// as an OpenMetrics-style exemplar suffix on its bucket line, linking
// the Prometheus view straight to a trace ID.
func TestHistogramExemplarsInExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("faas_invoke_duration_seconds")
	h.Add(0.010)
	h.AddExemplar(0.013, "0123456789abcdef")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# {trace_id="0123456789abcdef"} 0.013`) {
		t.Fatalf("exposition missing the exemplar suffix:\n%s", out)
	}
	// The suffix rides bucket lines only — never _sum/_count/+Inf.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "trace_id") &&
			(strings.Contains(line, "_sum") || strings.Contains(line, "_count") || strings.Contains(line, "+Inf")) {
			t.Fatalf("exemplar leaked onto a non-bucket line: %s", line)
		}
	}
}

// TestHistogramWithoutExemplarsUnchanged: plain Add must produce
// exposition with no exemplar syntax at all — histograms that never see
// AddExemplar keep their pre-exemplar output byte for byte.
func TestHistogramWithoutExemplarsUnchanged(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency")
	h.Add(0.5)
	h.Add(1.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "#  {") || strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("untraced histogram grew exemplar syntax:\n%s", buf.String())
	}
}

// TestAddExemplarEmptyTraceDegradesToAdd: recording with no trace ID
// counts the observation but stores no exemplar.
func TestAddExemplarEmptyTraceDegradesToAdd(t *testing.T) {
	h := NewHistogram()
	h.AddExemplar(0.25, "")
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	if ex := h.snapshot().exemplars; len(ex) != 0 {
		t.Fatalf("empty trace ID stored an exemplar: %v", ex)
	}
}

// TestExemplarLatestWins: the newest trace per bucket wins.
func TestExemplarLatestWins(t *testing.T) {
	a := NewHistogram()
	a.AddExemplar(0.100, "old")
	a.AddExemplar(0.101, "new") // same bucket: must replace
	ex := a.snapshot().exemplars
	if len(ex) != 1 {
		t.Fatalf("exemplars = %v, want one bucket", ex)
	}
	for _, e := range ex {
		if e.TraceID != "new" {
			t.Fatalf("bucket kept %q, want the latest trace", e.TraceID)
		}
	}
}
