// Command benchmark is the repository's one performance benchmark: it
// composes the real layers of both substrates in one process — the live
// path (wire.ReliableClient -> federation.Router -> wire -> faas admission
// -> handler, over loopback TCP) and the simulator (scenario -> core
// engine -> sim kernel) — drives six seeded workloads, checks every
// output, and prints every metric by name and unit. See README.md.
//
// One workload, as BENCHMARK.json's driver runs it:
//
//	bash benchmark/run.sh --workload routed-small --seed 1 --seconds 12 --trace 0
//
// With --trace 1 the benchmark's own wrappers time the calls into each
// layer and the per-layer metrics are printed instead of the end-to-end
// ones. Without --workload every workload runs in a process of its own,
// --reps times plus one traced run, and the medians and quartiles go to
// <out>/run.json; --compare a.json b.json sets two such files side by
// side.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all, each in its own process)")
	seed := fs.Uint64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 5, "how long one run measures")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	outDir := fs.String("out", "benchmark/out", "directory for trace files and run.json")
	reps := fs.Int("reps", 3, "all-workloads mode: untraced runs per workload")
	compare := fs.Bool("compare", false, "compare two run.json files given as arguments")
	usage := func() int {
		fmt.Fprintf(stderr, "workloads: %s\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := fs.Parse(args); err != nil {
		return usage()
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare takes two run.json files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) || *reps < 1 {
		fmt.Fprintf(stderr, "benchmark: bad arguments %q\n", args)
		fs.Usage()
		return usage()
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *reps, *outDir, stdout, stderr)
	}
	if !isWorkload(*workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return usage()
	}

	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *outDir}
	res, err := runWorkload(rc)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", rc.workload, err)
		return 1
	}
	res.print(rc, stdout, stderr)
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

func runWorkload(rc runConfig) (*result, error) {
	switch rc.workload {
	case wRoutedSmall, wDirectSmall, wRoutedLarge:
		if rc.traced {
			return runClosedTraced(rc)
		}
		return runClosed(rc)
	case wOverloadOpen:
		if rc.traced {
			return runOverloadTraced(rc)
		}
		return runOverload(rc)
	case wSimStress:
		if rc.traced {
			return runSimStressTraced(rc, stressSpec)
		}
		return runSimStress(rc, stressSpec)
	default:
		if rc.traced {
			return runSimKernelTraced(rc, kernelPending)
		}
		return runSimKernel(rc, kernelPending)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes every metric by name with its unit, then any correctness
// failure, then the one-line JSON result.
func (r *result) print(rc runConfig, stdout, stderr io.Writer) {
	specs := endToEnd
	if rc.traced {
		specs = perLayer
	}
	line := resultLine{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v\n", rc.workload, rc.seed, rc.seconds, rc.traced)
	for _, m := range specs {
		v := r.metrics[m.Name]
		line.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", m.Name, v, m.Unit)
	}
	info := make([]string, 0, len(r.info))
	for k := range r.info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(stdout, "  (%s %.6g)\n", k, r.info[k])
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(stdout, "  ops_attempted %d ops_failed %d failed_frac %.6g\n", r.attempted, r.failed, failedFrac)
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "benchmark: %s: INCORRECT: %s\n", rc.workload, p)
	}
	blob, err := json.Marshal(line)
	if err != nil {
		// Only a NaN or infinite metric can fail to marshal; report it as
		// the incorrect result it is.
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", rc.workload, err)
		r.problems = append(r.problems, err.Error())
		blob = []byte(fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, r.attempted, r.failed))
	}
	fmt.Fprintf(stdout, "%s\n", blob)
}
