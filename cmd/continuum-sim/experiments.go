package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"continuum/internal/experiments"
)

// runner is one entry of the experiment or ablation registry.
type runner = struct {
	ID  string
	Run experiments.Runner
}

// experimentsMain runs `continuum-sim experiments`: it regenerates the
// reconstructed evaluation, every table and figure indexed in DESIGN.md
// plus the design-choice ablations:
//
//	continuum-sim experiments                  # F*/T* at full size
//	continuum-sim experiments -exp F1,T3       # selected ids (A* included)
//	continuum-sim experiments -ablations       # the A* ablation studies
//	continuum-sim experiments -size small      # trimmed parameters
//	continuum-sim experiments -csv             # tables as CSV
func experimentsMain(args []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	exp := fs.String("exp", "all", "comma-separated experiment ids (F1,T1,A2,...) or 'all'")
	ablations := fs.Bool("ablations", false, "with -exp all: run the ablation studies instead of the main experiments")
	sizeFlag := fs.String("size", "full", "experiment size: 'full' or 'small'")
	csv := fs.Bool("csv", false, "emit tables as CSV")
	fs.Parse(args)

	size := experiments.Full
	switch *sizeFlag {
	case "full":
	case "small":
		size = experiments.Small
	default:
		fmt.Fprintf(os.Stderr, "continuum-sim experiments: unknown size %q (want full or small)\n", *sizeFlag)
		os.Exit(2)
	}
	runners, err := selectExperiments(*exp, *ablations)
	if err != nil {
		fmt.Fprintln(os.Stderr, "continuum-sim experiments:", err)
		os.Exit(2)
	}
	for _, e := range runners {
		res := e.Run(size)
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", res.ID, res.Title, res.Table.CSV())
		} else {
			fmt.Println(res.String())
			fmt.Println()
		}
	}
}

// selectExperiments resolves -exp into runners in registry order. "all"
// means every main experiment, or every ablation with -ablations; an
// explicit list may name any experiment or ablation. Every id must
// resolve: the error names all the ones that do not.
func selectExperiments(exp string, ablations bool) ([]runner, error) {
	if exp == "all" {
		if ablations {
			return experiments.Ablations(), nil
		}
		return experiments.All(), nil
	}
	registry := append(experiments.All(), experiments.Ablations()...)
	known := make(map[string]bool, len(registry))
	for _, e := range registry {
		known[e.ID] = true
	}
	wanted := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		if !known[id] {
			unknown = append(unknown, fmt.Sprintf("%q", id))
			continue
		}
		wanted[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id %s", strings.Join(unknown, ", "))
	}
	var out []runner
	for _, e := range registry {
		if wanted[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
