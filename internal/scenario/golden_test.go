package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"continuum/internal/trace"
)

// goldenReports pins the SHA-256 of the marshalled Report and of the
// span file of the trace for every shipped example scenario and two 1000-node
// stress instances. The values are the simulator's output before the
// bounded greedy-latency scan and the eligibility predicate landed, so a
// simulator performance change that alters any simulated result fails
// here. Change a value (and justify it in the change) only when a change
// is meant to alter behaviour; the failure message gives the new value.
var goldenReports = map[string][2]string{
	"cascading-failure":     {"3c664cf7733460eed8c05dbf415a33ea8c6dc623f7d8fc50cf1d544020c63401", "624e82a4f8907ca26a9a6ba396203e33a289064575719c7032ebf89227d58ab6"},
	"correlated-edge-churn": {"6b66a69d99e82aa0951652f733365998625df690a6377755c528d57dd97dbdee", "75b6c439b63b39734741299deb4d1dd6beba71e586c62d86b1dbd9b8289e6d51"},
	"diurnal":               {"6ef29efeb3c0192d0c1637129542bbc464cada3323b69703fc7b8ea437ad66cf", "2d90e827813a13f5920e7f1a840e284f43993fb643234a77a309574976a3b439"},
	"flash-crowd":           {"261b70c7a173af95b24c3284dc123bc1f0c7b75235adf706724767ea34775c19", "64787dbee0fcdd0002d666a4ee08534dda60608e086baeb01287053dab4bd292"},
	"gateway-brownout":      {"d94c7c7e96744059bef5ad79da892a96b39b58a6d321516f420017d2129caa4a", "a22d7a8ddbd2cf5190b3aa34d40890a86156f49f82b360f3c0a8be05972e8ff2"},
	"regional-partition":    {"8f03cae985ef8e66552eba1245fd79902865fd26feefa61069e94319b5f616d7", "4365d1740ab3b2696bb709f2f4b8777d548edb7925f442c2429487c0fce6b880"},
	// Report sha256 prefix 0x47bb89646bd2 is the benchmark's
	// sim.report_sha 78870789516242 for sim-stress at seed 1.
	"stress-1000-seed1": {"47bb89646bd21a8e9e1d0a85aacf099977b3f38cf5bb188c0a2a821b8125c2dc", "91cf362d1bc7eb06ba2ba20696cb5fdd3bfc8e157be7eb78dc306ed3a3c911cb"},
	"stress-1000-seed7": {"14ace1c921a94c9a191969908d6eea4dde4cb577481027c99c4f81a1c0243476", "e1d65aa533d772b41d095f38de51db8c710db4dfbacc7479a4b461339eec30d1"},
}

// TestScenarioGoldenReports is the bit-identity oracle for simulator
// performance work. Each scenario also runs through RunTracedParallel(4),
// which must give the same report and trace bytes. It is skipped off amd64, where the compiler may fuse
// multiply-adds and legitimately round differently.
func TestScenarioGoldenReports(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned on amd64; GOARCH=%s may fuse FMAs", runtime.GOARCH)
	}
	scenarios := goldenScenarios(t)
	if len(scenarios) != len(goldenReports) {
		t.Fatalf("%d scenarios to check, %d golden entries", len(scenarios), len(goldenReports))
	}
	for name, s := range scenarios {
		want, ok := goldenReports[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		rb, tb := runBytes(t, name, s.RunTraced)
		rs, ts := sha256.Sum256(rb), sha256.Sum256(tb)
		got := [2]string{hex.EncodeToString(rs[:]), hex.EncodeToString(ts[:])}
		if got[0] != want[0] {
			t.Errorf("%s: report sha256 %s, golden %s", name, got[0], want[0])
		}
		if got[1] != want[1] {
			t.Errorf("%s: trace sha256 %s, golden %s", name, got[1], want[1])
		}
		prb, ptb := runBytes(t, name, func() (*Report, *trace.Tracer, error) { return s.RunTracedParallel(4) })
		if !bytes.Equal(prb, rb) {
			t.Errorf("%s: RunTracedParallel(4) report differs from RunTraced's", name)
		}
		if !bytes.Equal(ptb, tb) {
			t.Errorf("%s: RunTracedParallel(4) trace differs from RunTraced's", name)
		}
	}
}

// runBytes runs one traced pass and returns its marshalled report and
// its trace's span file.
func runBytes(t *testing.T, name string, run func() (*Report, *trace.Tracer, error)) (report, spans []byte) {
	t.Helper()
	r, tr, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rb, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return rb, buf.Bytes()
}

// goldenScenarios parses every examples/scenarios/*.json and adds the
// two 1000-node stress instances, keyed as in goldenReports.
func goldenScenarios(t *testing.T) map[string]*Scenario {
	t.Helper()
	scenarios := map[string]*Scenario{}
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Parse(raw)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		name := filepath.Base(f)
		scenarios[name[:len(name)-len(".json")]] = p.Scenario
	}
	for _, seed := range []uint64{1, 7} {
		scenarios[fmt.Sprintf("stress-1000-seed%d", seed)] = GenerateStress(StressSpec{Nodes: 1000, Seed: seed, Rate: 8, Horizon: 8})
	}
	return scenarios
}
