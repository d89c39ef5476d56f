package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"continuum/internal/scenario"
)

// tinyRun runs one workload at a size that finishes in a fraction of a
// second; nothing here depends on how fast the machine is.
func tinyRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	rc := runConfig{workload: workload, seed: 3, seconds: 0.2, traced: traced, outDir: t.TempDir()}
	var res *result
	var err error
	switch workload {
	case wSimStress:
		spec := scenario.StressSpec{Nodes: 16, Origins: 4, Rate: 4, Horizon: 2}
		if traced {
			res, err = runSimStressTraced(rc, spec)
		} else {
			res, err = runSimStress(rc, spec)
		}
	case wSimKernel:
		if traced {
			res, err = runSimKernelTraced(rc, 2000)
		} else {
			res, err = runSimKernel(rc, 2000)
		}
	default:
		res, err = runWorkload(rc)
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if traced {
		if _, err := os.Stat(filepath.Join(rc.outDir, workload+".trace.json")); err != nil {
			t.Errorf("%s: traced run left no trace file: %v", workload, err)
		}
	}
	return res
}

func metricNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, m := range specs {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

func TestEveryWorkloadCompletesWithoutFailures(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res := tinyRun(t, w.Name, traced)
				if len(res.problems) != 0 {
					t.Errorf("correctness failures: %v", res.problems)
				}
				if res.attempted < 1 || res.failed != 0 {
					t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
				}
				want := metricNames(endToEnd)
				if traced {
					want = metricNames(perLayer)
				}
				got := make([]string, 0, len(res.metrics))
				for k := range res.metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("emitted metrics %v\nwant exactly %v", got, want)
				}
				if !traced {
					for _, m := range endToEnd {
						if res.metrics[m.Name] <= 0 {
							t.Errorf("%s = %v: end-to-end metrics are never 0", m.Name, res.metrics[m.Name])
						}
					}
				}
			})
		}
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	res := tinyRun(t, wSimKernel, false)
	var stdout, stderr bytes.Buffer
	res.print(runConfig{workload: wSimKernel, seed: 3, seconds: 0.2}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	if !strings.Contains(stdout.String(), "ops_per_s") || !strings.Contains(stdout.String(), "1/s") {
		t.Errorf("every metric is printed by name with its unit, got:\n%s", stdout.String())
	}
}

func TestOpenLoopScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := buildSchedule(11, 1), buildSchedule(11, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, buildSchedule(12, 1)) {
		t.Error("two seeds gave the same schedule")
	}
	if len(a) != len(rateSteps) {
		t.Fatalf("%d steps, want %d", len(a), len(rateSteps))
	}
	for i, st := range rateSteps {
		want := st.factor * overloadService * st.share
		if n := float64(len(a[i])); n < want*0.7 || n > want*1.3 {
			t.Errorf("step %s: %v arrivals in %v s, want about %v", st.name, n, st.share, want)
		}
		for j := 1; j < len(a[i]); j++ {
			if a[i][j].due < a[i][j-1].due {
				t.Fatalf("step %s: arrivals out of order at %d", st.name, j)
			}
		}
	}
	if !bytes.Equal(seededPayload(5, 64), seededPayload(5, 64)) || bytes.Equal(seededPayload(5, 64), seededPayload(6, 64)) {
		t.Error("payload bytes must follow the seed")
	}
}

func TestUnknownWorkloadOrFlagExitsTwoWithTheNames(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--no-such-flag"},
		{"--workload", wSimKernel, "--trace", "2"},
		{"--workload", wSimKernel, "stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		for _, w := range workloads {
			if !strings.Contains(stderr.String(), w.Name) {
				t.Errorf("%v: stderr does not list workload %s:\n%s", args, w.Name, stderr.String())
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %s", args, stdout.String())
		}
	}
}
