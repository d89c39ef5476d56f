// Command continuum-sim is the simulator's one command line: it runs JSON
// scenarios through the continuum simulator (or a live in-process fleet)
// and regenerates the reconstructed evaluation.
//
// Usage:
//
//	continuum-sim scenario validate examples/scenarios/*.json
//	continuum-sim scenario run -f flash-crowd.json            # sim backend
//	continuum-sim scenario run -f flash-crowd.json -gantt 72  # plus an ASCII busy-timeline
//	continuum-sim scenario run -f flash-crowd.json -trace out.jsonl        # span log, one JSON event per line
//	continuum-sim scenario run -f flash-crowd.json -chrome-trace out.json  # open in Perfetto / chrome://tracing
//	continuum-sim scenario run -f flash-crowd.json -backend live -time-scale 0.1
//	continuum-sim scenario stress -nodes 1000 -budget 60s     # scale harness
//	continuum-sim scenario example | continuum-sim scenario run -f -
//	continuum-sim experiments -exp F1,T3 -size small          # tables and figures
//	continuum-sim experiments -ablations                      # design-choice ablations
package main

import (
	"fmt"
	"io"
	"os"
)

const usage = `usage:
  continuum-sim scenario validate|run|stress|example [flags]
  continuum-sim experiments [-exp ids] [-ablations] [-size full|small] [-csv]`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "scenario":
		scenarioMain(os.Args[2:])
	case "experiments":
		experimentsMain(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "continuum-sim: unknown command %q\n%s\n", os.Args[1], usage)
		os.Exit(2)
	}
}

// writeFile streams one of the tracer's export formats into path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "continuum-sim:", err)
	os.Exit(1)
}
