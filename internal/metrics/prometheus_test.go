package metrics

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestLabelAndSplit(t *testing.T) {
	name := Label("faas_invoke_duration_seconds", "ep", "edge-1", "fn", "echo")
	want := `faas_invoke_duration_seconds{ep="edge-1",fn="echo"}`
	if name != want {
		t.Fatalf("Label = %q, want %q", name, want)
	}
	base, labels := SplitLabels(name)
	if base != "faas_invoke_duration_seconds" {
		t.Fatalf("base = %q", base)
	}
	if labels["ep"] != "edge-1" || labels["fn"] != "echo" {
		t.Fatalf("labels = %v", labels)
	}

	base, labels = SplitLabels("plain_name")
	if base != "plain_name" || labels != nil {
		t.Fatalf("plain split = %q, %v", base, labels)
	}

	if Label("x") != "x" {
		t.Fatal("no-label Label should be identity")
	}

	defer func() {
		if recover() == nil {
			t.Error("odd kv count did not panic")
		}
	}()
	Label("x", "dangling")
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"ok_name":    "ok_name",
		"with-dash":  "with_dash",
		"9starts":    "_9starts",
		"dots.in.it": "dots_in_it",
		"":           "_",
		"a:b":        "a:b",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("requests_total", "op", "invoke")).Add(7)
	r.Gauge("inflight").Set(3)
	h := r.Histogram(Label("lat_seconds", "fn", "echo"))
	h.Add(0.010)
	h.Add(0.010)
	h.Add(0.500)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{op="invoke"} 7`,
		"# TYPE inflight gauge",
		"inflight 3",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{fn="echo",le="+Inf"} 3`,
		`lat_seconds_count{fn="echo"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative and ordered: parse every
	// lat_seconds_bucket line and check monotone counts with +Inf == n.
	var prev int64 = -1
	var infSeen bool
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad sample line %q", line)
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("bad count in %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("buckets not cumulative: %q after %d", line, prev)
		}
		prev = n
		if strings.Contains(line, `le="+Inf"`) {
			infSeen = true
			if n != 3 {
				t.Fatalf("+Inf bucket = %d, want 3", n)
			}
		}
	}
	if !infSeen {
		t.Fatal("no +Inf bucket emitted")
	}
}

func TestWritePrometheusSanitizesAndEscapes(t *testing.T) {
	r := NewRegistry()
	r.Counter(Label("bad-metric.name", "bad-key", "quote\"back\\slash\nnl")).Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE bad_metric_name counter") {
		t.Fatalf("metric name not sanitized:\n%s", out)
	}
	if !strings.Contains(out, `bad_metric_name{bad_key="quote\"back\\slash\nnl"} 1`) {
		t.Fatalf("label not sanitized/escaped:\n%s", out)
	}
	// The raw newline in the label value must not split the sample line:
	// exactly two lines mention the metric (TYPE header + one sample).
	n := 0
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.Contains(line, "bad_metric_name") {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("expected TYPE + 1 sample line, got %d:\n%s", n, out)
	}
}

func TestWritePrometheusUnderflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	h.Add(0) // underflow
	h.Add(0.1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, fmt.Sprintf(`h_bucket{le="%.3g"} 1`, 1e-9)) {
		t.Fatalf("underflow bucket missing:\n%s", out)
	}
	if !strings.Contains(out, `h_bucket{le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket wrong:\n%s", out)
	}
}

func TestWritePrometheusStableOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Inc()
	r.Counter("a_total").Inc()
	var one, two bytes.Buffer
	if err := r.WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatal("exposition output not deterministic")
	}
	if strings.Index(one.String(), "a_total") > strings.Index(one.String(), "b_total") {
		t.Fatalf("families not sorted:\n%s", one.String())
	}
}
