// Package experiments implements the reconstructed evaluation of the
// reproduction: one function per table/figure indexed in DESIGN.md. Each
// returns a Result whose Table prints the rows the figure/table would
// plot, so `continuum-sim experiments -exp <id>` and the top-level
// benchmarks both regenerate the full evaluation.
//
// Scale parameters accept a Size knob so benchmarks can run trimmed
// versions; the CLI defaults to full size.
package experiments

import (
	"fmt"

	"continuum/internal/metrics"
)

// Size scales an experiment: Small for quick benchmark iterations, Full
// for the numbers recorded in EXPERIMENTS.md.
type Size int

// Experiment sizes.
const (
	Small Size = iota
	Full
)

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	Table *metrics.Table
	// Notes records the qualitative expectation the measured rows are
	// checked against in EXPERIMENTS.md.
	Notes string
}

// String renders the result header and table.
func (r *Result) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s\n%s", r.ID, r.Title, r.Table, r.Notes)
}

// Runner produces one experiment at a given size.
type Runner func(Size) *Result

// All returns the experiment registry in presentation order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"F1", F1Gilder},
		{"T1", T1Placement},
		{"F2", F2DAGSched},
		{"F3", F3FaaS},
		{"T2", T2DataFabric},
		{"F4", F4ApplianceSweep},
		{"T3", T3Facility},
		{"F5", F5SimScaling},
		{"T4", T4Pareto},
		{"F6", F6LightWall},
		{"F7", F7Reliability},
		{"T5", T5Adaptive},
		{"F8", F8Elasticity},
		{"F9", F9Routing},
		{"F10", F10Workflow},
		{"F11", F11Speculation},
	}
}
