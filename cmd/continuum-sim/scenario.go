package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/federation"
	"continuum/internal/scenario"
)

// scenarioMain dispatches the `continuum-sim scenario <cmd>` subcommand
// family — the experiment-facing interface to the unified scenario DSL:
//
//	continuum-sim scenario validate file.json...   # check without running
//	continuum-sim scenario run -f file.json        # run (sim or live backend)
//	continuum-sim scenario stress -nodes 1000      # generated scale harness
//	continuum-sim scenario example                 # print a documented sample
func scenarioMain(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "continuum-sim scenario: subcommand required: validate | run | stress | example")
		os.Exit(2)
	}
	switch args[0] {
	case "validate":
		scenarioValidate(args[1:])
	case "run":
		scenarioRun(args[1:])
	case "stress":
		scenarioStress(args[1:])
	case "example":
		printExample()
	default:
		fmt.Fprintf(os.Stderr, "continuum-sim scenario: unknown subcommand %q (want validate | run | stress | example)\n", args[0])
		os.Exit(2)
	}
}

func printExample() {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(scenario.Example()); err != nil {
		fatal(err)
	}
}

// scenarioValidate checks every named file and reports all failures
// before exiting non-zero, so a library sweep shows the full damage.
func scenarioValidate(args []string) {
	fs := flag.NewFlagSet("scenario validate", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "continuum-sim scenario validate: at least one scenario file required")
		os.Exit(2)
	}
	failed := 0
	for _, path := range fs.Args() {
		s, err := loadScenario(path)
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "continuum-sim: %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Printf("%s: ok (%s: %d nodes, %d links, %d events)\n",
			path, s.Name, len(s.Nodes), len(s.Links), len(s.Events))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// scenarioRun executes one scenario on the chosen backend.
func scenarioRun(args []string) {
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	file := fs.String("f", "", "scenario JSON file ('-' for stdin)")
	backend := fs.String("backend", "sim", "execution backend: sim (virtual time) or live (in-process continuumd fleet)")
	timeScale := fs.Float64("time-scale", 1, "live backend: wall-clock seconds per scenario second")
	function := fs.String("function", "", "live backend: builtin each request invokes (default echo)")
	csv := fs.Bool("csv", false, "emit the report as CSV")
	gantt := fs.Int("gantt", 0, "sim backend: also print an ASCII busy-timeline of the given width")
	traceOut := fs.String("trace", "", "sim backend: write the event trace as JSONL to this file")
	chromeOut := fs.String("chrome-trace", "", "sim backend: write a Chrome trace-event JSON file")
	parallel := fs.Int("parallel", 1, "sim backend: workload-synthesis workers (output is bit-identical for any value)")
	router := fs.Bool("router", false, "live backend: front the fleet with an in-process continuum-router and drive every request through it")
	policy := fs.String("policy", "", "live backend with -router: routing policy, "+strings.Join(federation.PolicyNames, " or ")+" (default hash)")
	fs.Parse(args)
	if *file == "" {
		fmt.Fprintln(os.Stderr, "continuum-sim scenario run: -f scenario.json required")
		fs.Usage()
		os.Exit(2)
	}
	s, err := loadScenario(*file)
	if err != nil {
		fatal(err)
	}

	switch *backend {
	case "sim":
		if *router || *policy != "" {
			fatal(fmt.Errorf("-router/-policy are live-backend options; the sim backend has no router"))
		}
		report, tr, err := s.RunTracedParallel(*parallel)
		if err != nil {
			fatal(err)
		}
		printReport(report, *csv)
		if *gantt > 0 {
			fmt.Println()
			fmt.Print(tr.Gantt(*gantt))
		}
		if *traceOut != "" {
			if err := writeFile(*traceOut, tr.WriteJSONL); err != nil {
				fatal(err)
			}
		}
		if *chromeOut != "" {
			if err := writeFile(*chromeOut, tr.WriteChromeTrace); err != nil {
				fatal(err)
			}
		}
	case "live":
		if *gantt > 0 || *traceOut != "" || *chromeOut != "" {
			fatal(fmt.Errorf("-gantt/-trace/-chrome-trace are simulator exports; the live backend has no virtual-time tracer"))
		}
		if *parallel > 1 {
			fatal(fmt.Errorf("-parallel is a simulator option; the live backend runs in wall-clock time"))
		}
		report, err := s.RunLive(scenario.LiveOptions{
			TimeScale: *timeScale,
			Function:  *function,
			Router:    *router,
			Policy:    *policy,
		})
		if err != nil {
			fatal(err)
		}
		printReport(report, *csv)
		if report.Lost > 0 {
			fatal(fmt.Errorf("live run lost %d requests", report.Lost))
		}
	default:
		fatal(fmt.Errorf("unknown backend %q (want sim or live)", *backend))
	}
}

// scenarioStress generates the large-fleet scenario, optionally dumps
// it, and runs it on the simulator under a wall-clock budget — the scale
// gate `make stress` enforces. With -runs > 1 it becomes a seed sweep:
// replicas with consecutive seeds run across -parallel workers (each
// replica is an independent kernel, so whole runs shard cleanly), and
// reports print in seed order regardless of completion order.
func scenarioStress(args []string) {
	fs := flag.NewFlagSet("scenario stress", flag.ExitOnError)
	nodes := fs.Int("nodes", 1000, "total fleet size")
	seed := fs.Uint64("seed", 42, "scenario seed (first seed of a -runs sweep)")
	runs := fs.Int("runs", 1, "replicas to run with consecutive seeds")
	parallel := fs.Int("parallel", 1, "worker goroutines for a -runs sweep (each run is one independent kernel)")
	budget := fs.Duration("budget", 0, "fail if validate+run exceeds this wall-clock budget (0 = unlimited, covers the whole sweep)")
	out := fs.String("out", "", "also write the generated scenario JSON to this file")
	validateOnly := fs.Bool("validate", false, "generate and validate only, skip the run")
	csv := fs.Bool("csv", false, "emit the report as CSV")
	fs.Parse(args)
	if *runs < 1 {
		fatal(fmt.Errorf("-runs must be >= 1, got %d", *runs))
	}

	s := scenario.GenerateStress(scenario.StressSpec{Nodes: *nodes, Seed: *seed})
	if *out != "" {
		raw, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	if err := s.Validate(); err != nil {
		fatal(err)
	}
	if *validateOnly {
		fmt.Printf("%s: ok (%d nodes, %d links, %d events) validated in %v\n",
			s.Name, len(s.Nodes), len(s.Links), len(s.Events), time.Since(start).Round(time.Millisecond))
		return
	}

	reports := make([]*scenario.Report, *runs)
	errs := make([]error, *runs)
	runOne := func(i int) {
		si := s
		if i > 0 {
			si = scenario.GenerateStress(scenario.StressSpec{Nodes: *nodes, Seed: *seed + uint64(i)})
		}
		reports[i], errs[i] = si.Run()
	}
	workers := *parallel
	if workers > *runs {
		workers = *runs
	}
	if workers <= 1 {
		for i := 0; i < *runs; i++ {
			runOne(i)
		}
	} else {
		var cursor int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&cursor, 1))
					if i >= *runs {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	var completed int64
	for i := 0; i < *runs; i++ {
		if errs[i] != nil {
			fatal(fmt.Errorf("seed %d: %w", *seed+uint64(i), errs[i]))
		}
		if *runs > 1 {
			fmt.Printf("seed %d:\n", *seed+uint64(i))
		}
		printReport(reports[i], *csv)
		completed += reports[i].Completed
	}
	fmt.Printf("\nwall clock: %v", elapsed.Round(time.Millisecond))
	if *runs > 1 {
		fmt.Printf(" (%d runs x %d workers, %.0f tasks/sec aggregate)",
			*runs, workers, float64(completed)/elapsed.Seconds())
	}
	fmt.Println()
	if kb, ok := peakRSSKB(); ok {
		fmt.Printf("peak RSS: %.0f MB\n", float64(kb)/1e3)
	}
	if *budget > 0 && elapsed > *budget {
		fatal(fmt.Errorf("stress sweep took %v, budget %v", elapsed.Round(time.Millisecond), *budget))
	}
}

func printReport(r *scenario.Report, csv bool) {
	if csv {
		fmt.Print(r.Table().CSV())
	} else {
		fmt.Print(r.Table().String())
	}
}

// loadScenario reads and parses one scenario file ('-' for stdin).
func loadScenario(path string) (*scenario.Scenario, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return scenario.Parse(raw)
}
