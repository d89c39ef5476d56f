// Command continuum-bench regenerates the reconstructed evaluation: every
// table and figure indexed in DESIGN.md, plus the design-choice ablations.
//
// Usage:
//
//	continuum-bench                 # run everything at full size
//	continuum-bench -exp F1,T3      # selected experiments
//	continuum-bench -ablations      # the A* ablation studies
//	continuum-bench -size small     # trimmed parameters (quick look)
//	continuum-bench -csv            # tables as CSV
//	continuum-bench -overload       # goodput under flash crowd, admission on/off -> BENCH_overload.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"continuum/internal/experiments"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (F1,T1,...) or 'all'")
	ablations := flag.Bool("ablations", false, "run the ablation studies instead of the main experiments")
	sizeFlag := flag.String("size", "full", "experiment size: 'full' or 'small'")
	csv := flag.Bool("csv", false, "emit tables as CSV")
	overloadBench := flag.Bool("overload", false, "measure goodput under a flash crowd with and without admission control instead of the experiments")
	overloadDur := flag.Duration("overload-dur", 2*time.Second, "overload bench: driven duration per mode")
	overloadOut := flag.String("overload-out", "BENCH_overload.json", "overload bench: JSON report path")
	overloadGate := flag.Bool("overload-gate", false, "overload bench: exit nonzero unless admission-on goodput >= admission-off (the overload-smoke CI gate)")
	engineBench := flag.Bool("engine", false, "measure discrete-event kernel and engine throughput instead of the experiments")
	engineQuick := flag.Bool("engine-quick", false, "engine bench: trimmed sizes for the CI gate")
	engineOut := flag.String("engine-out", "BENCH_engine.json", "engine bench: JSON report path")
	engineGate := flag.Bool("engine-gate", false, "engine bench: exit nonzero on throughput floor, alloc, or parallel-determinism violations")
	engineFloor := flag.Float64("engine-floor", 1_000_000, "engine bench: minimum calendar events/sec at the largest population")
	flag.Parse()

	if *engineBench {
		if err := runEngineBench(*engineQuick, *engineOut, *engineGate, *engineFloor); err != nil {
			fmt.Fprintf(os.Stderr, "continuum-bench: engine: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *overloadBench {
		if err := runOverloadBench(*overloadDur, *overloadOut, *overloadGate); err != nil {
			fmt.Fprintf(os.Stderr, "continuum-bench: overload: %v\n", err)
			os.Exit(1)
		}
		return
	}

	size := experiments.Full
	switch *sizeFlag {
	case "full":
	case "small":
		size = experiments.Small
	default:
		fmt.Fprintf(os.Stderr, "continuum-bench: unknown size %q\n", *sizeFlag)
		os.Exit(2)
	}

	var runners []struct {
		ID  string
		Run experiments.Runner
	}
	if *ablations {
		runners = experiments.Ablations()
	} else {
		runners = experiments.All()
	}

	selected := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			selected[strings.TrimSpace(id)] = true
		}
		// Allow selecting ablations by id without the flag.
		for id := range selected {
			if strings.HasPrefix(id, "A") && !*ablations {
				runners = append(runners, experiments.Ablations()...)
				break
			}
		}
	}

	ran := 0
	for _, e := range runners {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		res := e.Run(size)
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", res.ID, res.Title, res.Table.CSV())
		} else {
			fmt.Println(res.String())
			fmt.Println()
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "continuum-bench: no experiment matched %q\n", *expFlag)
		os.Exit(2)
	}
}
