package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	lower := metricSpec{Name: "op_p50_us", Better: "lower", Bound: 0.1}
	tight := func(med float64) metricSummary {
		return metricSummary{Median: med, Q1: med * 0.99, Q3: med * 1.01, N: 10}
	}
	wide := func(med float64) metricSummary {
		return metricSummary{Median: med, Q1: med * 0.9, Q3: med * 1.1, N: 10}
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b metricSummary
		want string
	}{
		{"throughput fell past the bound", higher, tight(100), tight(85), verdictWorse},
		{"throughput fell inside the bound", higher, tight(100), tight(95), verdictOK},
		{"throughput rose", higher, tight(100), tight(150), verdictOK},
		{"latency rose past the bound", lower, tight(100), tight(115), verdictWorse},
		{"latency fell", lower, tight(100), tight(50), verdictOK},
		{"spread wider than the bound", higher, wide(100), tight(98), verdictUnresolved},
		{"worse wins over unresolved", higher, wide(100), wide(80), verdictWorse},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64, failedFrac float64) string {
		env := envelope{Workloads: []workloadReport{{Name: wSimKernel, Correct: true, FailedFrac: failedFrac, Metrics: map[string]metricSummary{}}}}
		for _, m := range endToEnd {
			env.Workloads[0].Metrics[m.Name] = summarize(m.Unit, []float64{1, 1, 1})
		}
		env.Workloads[0].Metrics["ops_per_s"] = summarize("1/s", []float64{opsPerS, opsPerS * 1.001, opsPerS * 0.999})
		blob, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow, failing := write("a.json", 1000, 0), write("b.json", 990, 0), write("c.json", 500, 0), write("d.json", 1000, 0.5)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--compare", base, same}, &stdout, &stderr); code != 0 {
		t.Errorf("two agreeing runs: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "failed_frac") || strings.Contains(stdout.String(), verdictWorse) {
		t.Errorf("agreeing runs:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"--compare", base, slow}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), verdictWorse) {
		t.Errorf("halved throughput: exit %d\n%s", code, stdout.String())
	}
	if code := run([]string{"--compare", base, failing}, &stdout, &stderr); code != 1 {
		t.Errorf("a side with failures: exit %d, want 1", code)
	}
	if code := run([]string{"--compare", base}, &stdout, &stderr); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
}
