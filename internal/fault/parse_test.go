package fault

import (
	"strings"
	"testing"
)

// TestParseSpecRejects feeds malformed fault specs to the one parser,
// including bad terms in the embedded Spec's up/down half, and checks
// each error names what was wrong.
func TestParseSpecRejects(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "empty spec"},
		{"up=10s,oops", `term "oops" is not key=value`},
		{"bogus=1", `unknown key "bogus"`},
		{"up=banana,down=1s", "up"},
		{"up=-5s,down=1s", "up/down must be positive"}, // Validate rejects negative phases
	}
	for _, tc := range cases {
		_, err := ParseChaos(tc.in)
		if err == nil {
			t.Errorf("ParseChaos(%q) accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseChaos(%q) = %q, want mention of %q", tc.in, err, tc.want)
		}
	}
}

// TestSharedGrammarErrorStyle pins the one error style of the grammar
// that -chaos and scenario chaos events share: every message, whether
// from the scanner, a term, or Validate, starts with the fault prefix.
func TestSharedGrammarErrorStyle(t *testing.T) {
	for _, in := range []string{
		"",
		"up;10s",
		"bogus=1",
		"up=banana,down=1s",
		"up=-5s,down=1s",
		"drop=1.5",
		"seed=x",
	} {
		_, err := ParseChaos(in)
		if err == nil {
			t.Errorf("ParseChaos(%q) accepted", in)
			continue
		}
		if !strings.HasPrefix(err.Error(), "fault: ") {
			t.Errorf("ParseChaos(%q) = %q, lost the fault: prefix", in, err)
		}
	}
}

func TestParseChaosWhitespaceTolerant(t *testing.T) {
	spec, err := ParseChaos(" drop=0.1 , up=2s , down=1s ")
	if err != nil {
		t.Fatal(err)
	}
	if spec.DropProb != 0.1 || spec.MeanUp != 2 {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestTargetScriptedFailRepair(t *testing.T) {
	// NewTarget gives scripted (scenario-driven) control over the same
	// up/down state machine the stochastic injector uses.
	tg := NewTarget("n0")
	if !tg.Up() {
		t.Fatal("new target not up")
	}
	tg.Fail()
	if tg.Up() {
		t.Fatal("Fail() left target up")
	}
	tg.Fail() // idempotent
	if tg.Up() {
		t.Fatal("double Fail() flipped state")
	}
	tg.Repair()
	if !tg.Up() {
		t.Fatal("Repair() left target down")
	}
}
