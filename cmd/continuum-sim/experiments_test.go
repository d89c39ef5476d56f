package main

import (
	"strings"
	"testing"

	"continuum/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	ids := func(rs []runner) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = r.ID
		}
		return out
	}
	registryIDs := func(rs []runner) string { return strings.Join(ids(rs), ",") }

	cases := []struct {
		name      string
		exp       string
		ablations bool
		want      string // comma-joined ids in run order
		errHas    []string
	}{
		{name: "all", exp: "all", want: registryIDs(experiments.All())},
		{name: "all ablations", exp: "all", ablations: true, want: registryIDs(experiments.Ablations())},
		{name: "subset", exp: "F1,T3", want: "F1,T3"},
		{name: "registry order", exp: "T3,F1", want: "F1,T3"},
		{name: "ablation without flag", exp: "A2", want: "A2"},
		{name: "mixed", exp: "A2,F1", want: "F1,A2"},
		{name: "duplicate", exp: "F1,F1", want: "F1"},
		{name: "whitespace", exp: " F1 ", want: "F1"},
		{name: "one unknown", exp: "F1,NOPE", errHas: []string{`"NOPE"`}},
		{name: "every unknown named", exp: "NOPE,F1,f2", errHas: []string{`"NOPE"`, `"f2"`}},
		{name: "empty list", exp: "", errHas: []string{`""`}},
		{name: "empty id", exp: "F1,,T3", errHas: []string{`""`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectExperiments(tc.exp, tc.ablations)
			if tc.errHas != nil {
				if err == nil {
					t.Fatalf("selectExperiments(%q) = %v, want an error", tc.exp, ids(got))
				}
				for _, s := range tc.errHas {
					if !strings.Contains(err.Error(), s) {
						t.Fatalf("error %q does not name %s", err, s)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("selectExperiments(%q): %v", tc.exp, err)
			}
			if g := strings.Join(ids(got), ","); g != tc.want {
				t.Fatalf("selectExperiments(%q) = %s, want %s", tc.exp, g, tc.want)
			}
		})
	}
}
