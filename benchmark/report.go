package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

// envelope is one complete set of runs: where and how it was measured,
// and for every workload the median, quartiles and sample count of every
// metric.
type envelope struct {
	GitSHA     string           `json:"git_sha"`
	GoVersion  string           `json:"go_version"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Reps       int              `json:"reps"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"ops_attempted"`
	Failed    int64  `json:"ops_failed"`
	// FailedFrac is over the untraced runs.
	FailedFrac float64                  `json:"failed_frac"`
	Metrics    map[string]metricSummary `json:"metrics"`
}

type metricSummary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(unit string, vals []float64) metricSummary {
	q1, q3 := quartiles(vals)
	return metricSummary{Unit: unit, Median: median(vals), Q1: q1, Q3: q3, N: len(vals)}
}

// gitSHA is the revision the toolchain stamped into the binary, when it
// was built inside a git checkout.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runAll runs every workload in a process of its own — so peak RSS, GC
// state and set-up belong to that workload alone — reps times untraced
// and once traced, prints the summary and writes <out>/run.json.
func runAll(seed uint64, seconds float64, reps int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	env := envelope{GitSHA: gitSHA(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Reps: reps, Seconds: seconds}
	child := func(workload string, traced int) (*resultLine, error) {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced), "--out", outDir)
		cmd.Stderr = stderr
		out, runErr := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var line resultLine
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			return nil, fmt.Errorf("%s: no result line (%v)", workload, runErr)
		}
		return &line, nil
	}

	code := 0
	for _, w := range workloads {
		rep := workloadReport{Name: w.Name, Correct: true, Metrics: map[string]metricSummary{}}
		vals := map[string][]float64{}
		for i := 0; i <= reps; i++ {
			traced := 0
			if i == reps {
				traced = 1
			}
			line, err := child(w.Name, traced)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			rep.Correct = rep.Correct && line.Correct
			if traced == 0 {
				rep.Attempted += line.Attempted
				rep.Failed += line.Failed
			}
			for name, m := range line.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		if rep.Attempted > 0 {
			rep.FailedFrac = float64(rep.Failed) / float64(rep.Attempted)
		}
		fmt.Fprintf(stdout, "%s  correct=%v ops_attempted=%d ops_failed=%d failed_frac=%g\n", w.Name, rep.Correct, rep.Attempted, rep.Failed, rep.FailedFrac)
		for _, specs := range [][]metricSpec{endToEnd, perLayer} {
			for _, m := range specs {
				s := summarize(m.Unit, vals[m.Name])
				rep.Metrics[m.Name] = s
				if s.Median != 0 || s.N > 1 {
					fmt.Fprintf(stdout, "  %-34s %16.6g %-6s q1 %-12.6g q3 %-12.6g n %d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
				}
			}
		}
		if !rep.Correct {
			code = 1
		}
		env.Workloads = append(env.Workloads, rep)
	}
	blob, err := json.MarshalIndent(env, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "run.json"), append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", filepath.Join(outDir, "run.json"))
	return code
}

// Verdicts of compareFiles.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges one end-to-end metric on one workload, b against a:
// worse when b's median is worse than a's by more than the bound,
// unresolved when either side's run-to-run quartile spread is wider than
// the bound (so the bound cannot be told from noise), ok otherwise.
func verdict(m metricSpec, a, b metricSummary) (string, float64) {
	change := 0.0
	if a.Median != 0 {
		change = (b.Median - a.Median) / a.Median
	}
	worsening := change
	if m.Better == "higher" {
		worsening = -change
	}
	rel := func(s metricSummary) float64 {
		if s.Median == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Median
	}
	switch {
	case worsening > m.Bound:
		return verdictWorse, change
	case rel(a) > m.Bound || rel(b) > m.Bound:
		return verdictUnresolved, change
	}
	return verdictOK, change
}

// compareFiles prints one row per (end-to-end metric, workload) and the
// failed_frac of both sides; it exits 1 when any row is worse or either
// side had failures.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var envs [2]envelope
	for i, p := range []string{pathA, pathB} {
		blob, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(blob, &envs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", p, err)
			return 2
		}
	}
	byName := map[string]workloadReport{}
	for _, w := range envs[1].Workloads {
		byName[w.Name] = w
	}
	code := 0
	fmt.Fprintf(stdout, "%-14s %-10s %14s %14s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, wa := range envs[0].Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-14s missing from %s\n", wa.Name, pathB)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			v, change := verdict(m, wa.Metrics[m.Name], wb.Metrics[m.Name])
			fmt.Fprintf(stdout, "%-14s %-10s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", wa.Name, m.Name,
				wa.Metrics[m.Name].Median, wb.Metrics[m.Name].Median, change*100, m.Bound*100, v)
			if v == verdictWorse {
				code = 1
			}
		}
		fmt.Fprintf(stdout, "%-14s %-10s %14.6g %14.6g\n", wa.Name, "failed_frac", wa.FailedFrac, wb.FailedFrac)
		if wa.FailedFrac != 0 || wb.FailedFrac != 0 || !wa.Correct || !wb.Correct {
			code = 1
		}
	}
	return code
}
