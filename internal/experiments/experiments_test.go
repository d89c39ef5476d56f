package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// parse helpers -------------------------------------------------------------

// cell extracts row r, column c from a rendered table (whitespace-split is
// unsafe; we re-run via CSV instead).
func csvRows(t *testing.T, r *Result) [][]string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(r.Table.CSV()), "\n")
	var rows [][]string
	for _, ln := range lines[1:] { // skip header
		rows = append(rows, splitCSV(ln))
	}
	return rows
}

// splitCSV handles the simple quoting Table.CSV emits.
func splitCSV(ln string) []string {
	var out []string
	var cur strings.Builder
	inQ := false
	for i := 0; i < len(ln); i++ {
		ch := ln[i]
		switch {
		case inQ && ch == '"' && i+1 < len(ln) && ln[i+1] == '"':
			cur.WriteByte('"')
			i++
		case ch == '"':
			inQ = !inQ
		case ch == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(ch)
		}
	}
	out = append(out, cur.String())
	return out
}

func pct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q: %v", s, err)
	}
	return v
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimPrefix(s, "$"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad number %q: %v", s, err)
	}
	return v
}

// experiment smoke + shape tests --------------------------------------------

func TestAllExperimentsRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	want := []string{"F1", "T1", "F2", "F3", "T2", "F4", "T3", "F5", "T4", "F6", "F7", "T5", "F8", "F9", "F10", "F11"}
	for _, id := range want {
		if !ids[id] {
			t.Fatalf("missing experiment %s", id)
		}
		if Lookup(id) == nil {
			t.Fatalf("Lookup(%s) = nil", id)
		}
	}
	if Lookup("nope") != nil {
		t.Fatal("phantom experiment")
	}
}

func TestF1Shape(t *testing.T) {
	r := F1Gilder(Small)
	rows := csvRows(t, r)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The 1GB reference task must flip from local to ship across the sweep.
	if rows[0][5] != "local" {
		t.Fatalf("2001 bandwidth winner = %s, want local", rows[0][5])
	}
	if rows[len(rows)-1][5] != "ship" {
		t.Fatalf("x1000 winner = %s, want ship (disintegration)", rows[len(rows)-1][5])
	}
	// Simulation must corroborate the analytic winner everywhere.
	for i, row := range rows {
		if row[6] != "yes" {
			t.Fatalf("row %d: simulation disagrees with analytic model", i)
		}
	}
}

func TestT1Shape(t *testing.T) {
	r := T1Placement(Small)
	rows := csvRows(t, r)
	byKey := map[string][]string{}
	for _, row := range rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	// Cloud-only must carry WAN egress; edge-only none.
	for rate := range map[string]bool{"2/s": true, "10/s": true} {
		cloud := byKey[rate+"/cloud-only"]
		edge := byKey[rate+"/edge-only"]
		if cloud == nil || edge == nil {
			t.Fatalf("missing rows for rate %s", rate)
		}
		if cloud[5] == "0B" {
			t.Fatalf("cloud-only shows no egress at %s", rate)
		}
		if edge[5] != "0B" {
			t.Fatalf("edge-only shows egress %s at %s", edge[5], rate)
		}
		if pct(t, cloud[6]) != 100 {
			t.Fatalf("cloud-only cloud_share = %s", cloud[6])
		}
		if pct(t, edge[6]) != 0 {
			t.Fatalf("edge-only cloud_share = %s", edge[6])
		}
	}
}

func TestF2Shape(t *testing.T) {
	r := F2DAGSched(Small)
	rows := csvRows(t, r)
	// Group by DAG; HEFT ratio is 1.0 and random's ratio >= heft's.
	for _, row := range rows {
		if row[2] == "heft" && num(t, row[4]) != 1.0 {
			t.Fatalf("heft vs_heft = %s", row[4])
		}
	}
	// On the larger DAG, random should be noticeably worse than HEFT.
	var randRatio float64
	for _, row := range rows {
		if row[2] == "random" {
			randRatio = num(t, row[4]) // keep last (largest DAG)
		}
	}
	if randRatio < 1.05 {
		t.Fatalf("random only %.2fx of HEFT; expected a visible gap", randRatio)
	}
}

func TestT2Shape(t *testing.T) {
	r := T2DataFabric(Small)
	rows := csvRows(t, r)
	var nocacheHit, lruHit float64
	var lruSaved float64
	for _, row := range rows {
		switch row[1] {
		case "nocache":
			nocacheHit = pct(t, row[2])
		case "lru":
			lruHit = pct(t, row[2])
			lruSaved = pct(t, row[4])
		}
	}
	if nocacheHit != 0 {
		t.Fatalf("nocache hit rate = %v", nocacheHit)
	}
	if lruHit <= 10 {
		t.Fatalf("LRU hit rate = %v%%, expected a real cache effect", lruHit)
	}
	if lruSaved <= 5 {
		t.Fatalf("LRU WAN savings = %v%%, expected > 5%%", lruSaved)
	}
}

func TestF4Shape(t *testing.T) {
	r := F4ApplianceSweep(Small)
	rows := csvRows(t, r)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Throughput per joule must peak at an interior fraction.
	best, bestIdx := 0.0, -1
	for i, row := range rows {
		v := num(t, row[5])
		if v > best {
			best, bestIdx = v, i
		}
	}
	if bestIdx == 0 || bestIdx == len(rows)-1 {
		t.Fatalf("tasks/kJ peaks at extreme row %d; expected interior peak", bestIdx)
	}
}

func TestT3Shape(t *testing.T) {
	r := T3Facility(Small)
	rows := csvRows(t, r)
	// Greedy must beat random at every k (mean RTT column, parse units).
	parseDur := func(s string) float64 {
		// FormatDuration emits e.g. "12.3ms", "1.2s", "15.0µs".
		switch {
		case strings.HasSuffix(s, "µs"):
			return num(t, strings.TrimSuffix(s, "µs")) * 1e-6
		case strings.HasSuffix(s, "ms"):
			return num(t, strings.TrimSuffix(s, "ms")) * 1e-3
		case strings.HasSuffix(s, "min"):
			return num(t, strings.TrimSuffix(s, "min")) * 60
		case strings.HasSuffix(s, "ns"):
			return num(t, strings.TrimSuffix(s, "ns")) * 1e-9
		default:
			return num(t, strings.TrimSuffix(s, "s"))
		}
	}
	byK := map[string]map[string]float64{}
	for _, row := range rows {
		if byK[row[0]] == nil {
			byK[row[0]] = map[string]float64{}
		}
		byK[row[0]][row[1]] = parseDur(row[2])
	}
	for k, m := range byK {
		if m["greedy"] > m["random"] {
			t.Fatalf("k=%s greedy %v worse than random %v", k, m["greedy"], m["random"])
		}
	}
}

func TestF5Runs(t *testing.T) {
	r := F5SimScaling(Small)
	rows := csvRows(t, r)
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		cold, warm := num(t, row[3]), num(t, row[5])
		if cold <= 0 || warm <= 0 {
			t.Fatalf("nonpositive event rate: %v", row)
		}
		if warm < cold/2 {
			t.Fatalf("warm rate %v far below cold %v: cache not helping", warm, cold)
		}
	}
}

func TestT4Shape(t *testing.T) {
	r := T4Pareto(Small)
	rows := csvRows(t, r)
	onFront := 0
	for _, row := range rows {
		if row[4] == "*" {
			onFront++
		}
	}
	if onFront < 2 {
		t.Fatalf("Pareto front has %d points; expected >= 2 (no single winner)", onFront)
	}
}

func TestF6Shape(t *testing.T) {
	r := F6LightWall(Small)
	rows := csvRows(t, r)
	// First row (1µs service): propagation-bound even at 1km.
	if pct(t, strings.TrimSuffix(rows[0][1], "%")+"%") < 50 {
		t.Fatalf("1µs/1km propagation share %s, want >= 50%%", rows[0][1])
	}
	// Last row (1s service): distance irrelevant at 10000km.
	if pct(t, strings.TrimSuffix(rows[len(rows)-1][4], "%")+"%") > 50 {
		t.Fatalf("1s/10000km propagation share %s, want < 50%%", rows[len(rows)-1][4])
	}
	// Share must be monotone nondecreasing in distance per row.
	for _, row := range rows {
		prev := -1.0
		for c := 1; c <= 4; c++ {
			v := pct(t, row[c])
			if v < prev-1e-9 {
				t.Fatalf("propagation share not monotone in distance: %v", row)
			}
			prev = v
		}
	}
}

func TestF7Shape(t *testing.T) {
	r := F7Reliability(Small)
	rows := csvRows(t, r)
	byKey := map[string][]string{}
	for _, row := range rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	// Cloud-only never retries; edge-only retries grow as MTBF falls.
	for _, mtbf := range []string{"1000s", "5s"} {
		if cloud := byKey[mtbf+"/cloud-only"]; num(t, cloud[3]) != 0 {
			t.Fatalf("cloud-only retried at %s: %v", mtbf, cloud)
		}
	}
	stable := num(t, byKey["1000s/edge-only"][3])
	flaky := num(t, byKey["5s/edge-only"][3])
	if flaky <= stable {
		t.Fatalf("edge-only retries did not grow with failures: %v -> %v", stable, flaky)
	}
	// Success rates stay reported and parseable everywhere.
	for k, row := range byKey {
		if pct(t, row[2]) < 50 {
			t.Fatalf("%s success collapsed: %v", k, row)
		}
	}
}

func TestT5Shape(t *testing.T) {
	r := T5Adaptive(Small)
	rows := csvRows(t, r)
	byPol := map[string][]string{}
	for _, row := range rows {
		byPol[row[0]] = row
	}
	greedyFog := pct(t, byPol["greedy-latency"][3])
	adaptFog := pct(t, byPol["adaptive-ucb"][3])
	if adaptFog >= greedyFog {
		t.Fatalf("adaptive fog share %v not below greedy %v", adaptFog, greedyFog)
	}
	if best := pct(t, byPol["adaptive-ucb"][4]); best < 50 {
		t.Fatalf("adaptive best-node share %v%%, expected convergence", best)
	}
}

func TestF8Shape(t *testing.T) {
	r := F8Elasticity(Small)
	rows := csvRows(t, r)
	byFleet := map[string][]string{}
	for _, row := range rows {
		byFleet[row[0]] = row
	}
	smallSec := num(t, byFleet["static-1"][3])
	bigSec := num(t, byFleet["static-10"][3])
	if bigSec <= smallSec {
		t.Fatalf("static-10 node-seconds %v not above static-1 %v", bigSec, smallSec)
	}
	// Every elastic fleet must be cheaper than static-10 and provision
	// cold capacity at least once.
	for name, row := range byFleet {
		if name == "static-1" || name == "static-10" {
			continue
		}
		if es := num(t, row[3]); es >= bigSec {
			t.Fatalf("%s node-seconds %v not below static-10 %v", name, es, bigSec)
		}
		if num(t, row[4]) == 0 {
			t.Fatalf("%s never cold-provisioned", name)
		}
	}
}

func TestF9Shape(t *testing.T) {
	r := F9Routing(Small)
	rows := csvRows(t, r)
	byKey := map[string][]string{}
	var hotFracs []string
	for _, row := range rows {
		byKey[row[0]+"/"+row[1]] = row
		if len(hotFracs) == 0 || hotFracs[len(hotFracs)-1] != row[0] {
			hotFracs = append(hotFracs, row[0])
		}
	}
	parse := func(row []string) float64 { return durSeconds(t, row[2]) }
	low, high := hotFracs[0], hotFracs[len(hotFracs)-1]
	// Nearest must degrade sharply under the hotspot.
	if parse(byKey[high+"/nearest"]) < 3*parse(byKey[low+"/nearest"]) {
		t.Fatalf("nearest did not degrade under skew: %v vs %v",
			byKey[low+"/nearest"][2], byKey[high+"/nearest"][2])
	}
	// The hybrid must beat plain nearest at the hotspot extreme.
	if parse(byKey[high+"/nearest-spill"]) >= parse(byKey[high+"/nearest"]) {
		t.Fatal("nearest-spill no better than nearest under skew")
	}
}

// durSeconds parses metrics.FormatDuration output.
func durSeconds(t *testing.T, s string) float64 {
	t.Helper()
	switch {
	case strings.HasSuffix(s, "µs"):
		return num(t, strings.TrimSuffix(s, "µs")) * 1e-6
	case strings.HasSuffix(s, "ms"):
		return num(t, strings.TrimSuffix(s, "ms")) * 1e-3
	case strings.HasSuffix(s, "min"):
		return num(t, strings.TrimSuffix(s, "min")) * 60
	case strings.HasSuffix(s, "ns"):
		return num(t, strings.TrimSuffix(s, "ns")) * 1e-9
	default:
		return num(t, strings.TrimSuffix(s, "s"))
	}
}

func TestF10Shape(t *testing.T) {
	r := F10Workflow(Small)
	rows := csvRows(t, r)
	if rows[0][0] != "none" || num(t, rows[0][2]) != 1.0 {
		t.Fatalf("baseline row wrong: %v", rows[0])
	}
	last := rows[len(rows)-1]
	if num(t, last[2]) <= 1.0 {
		t.Fatalf("no makespan inflation under failures: %v", last)
	}
	if num(t, last[3]) == 0 {
		t.Fatalf("no retries under MTBF ~ task scale: %v", last)
	}
	// Everything must still complete (that is what retry buys).
	for _, row := range rows {
		parts := strings.Split(row[4], "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Fatalf("incomplete workflow: %v", row)
		}
	}
}

func TestF3RunsQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	r := F3FaaS(Small)
	rows := csvRows(t, r)
	// Warm throughput must beat cold at the same concurrency.
	byMode := map[string]float64{}
	for _, row := range rows {
		if row[0] == "8" {
			byMode[row[1]] = num(t, row[2])
		}
	}
	if byMode["warm"] <= byMode["cold"] {
		t.Fatalf("warm %v not faster than cold %v", byMode["warm"], byMode["cold"])
	}
}

// goldenTables pins the SHA-256 of each seed-pure table rendered at Small.
// A change here is a change in some experiment's numbers: regenerate the
// hash only together with the results_full.txt rows it moves.
var goldenTables = map[string]string{
	"F1":  "485a3e427b8e421de9016a337fe07e3ab81971c9382fc97f87b77b2d0fe4d9bb",
	"T1":  "b4b6b242872d0695a2526d24500e342bfe06388161e3573d583b7f5b6b9cd454",
	"F2":  "bfafbed1327fec9394eef4918fe9669ee4a63813d375179495aad7841d7ef69b",
	"T2":  "02aa24f1d6c7e4250f38116d2495cbaf225768b41c94d19f3eef0dbff764cac0",
	"F4":  "a0039bb408a5ed1c128668ab6b20af4d749ecf1e70965219b0d4939d7865aeff",
	"T3":  "4baf72a753d550bbd78c3b628fc1ff0c813b8d800cf18423b3065eb349584c33",
	"T4":  "01127c27206164164fc655dd53af2fd09ae121fdab234352ed6466926e8487e5",
	"F6":  "814a2d54196fcd0838136bdc4fc6719a4ffb26f88871b1120b7cdc87f458b67e",
	"F7":  "72a807582aa737494310e08a580033b3d537d0536d8388df72fd10f5e2c70d18",
	"T5":  "e59ac1bef09cd69c80162b1747c9137f83c742521d0c9956d0183114aa8b230a",
	"F8":  "7577e1890fd3e75c8bb96669ac9308fa92cafd7d5179ed79a62dd4239d95f38d",
	"F9":  "5bc0ffc1ef54e4d03599522c867c29732802a4faf8f64a17e1208f6343a1abe7",
	"F10": "8c75aab22dd26457a828c3ce143ecb09f585d98bae26b42478174174d6f171c2",
	"F11": "dce7b45d639f053d4b0e18210e8fb303549155ed78340a7418debe4e9df8eb54",
	"A2":  "b747c43aa6be7066c41643ca5304b98a5809f1a438d91292404a0e9a71b329ff",
	"A3":  "02ac6625242841d274d9cd513b53428859a666b09550ee9859019a72d0d2ddbb",
	"A5":  "005999ecea3ca2516d2ff4a5e9de9d58e7f887227b8825b36b9451b4d316fd19",
}

// TestExperimentsDeterministic pins the claim that every table is a pure
// function of its seed: each runner at Small, run once at the default
// GOMAXPROCS and once on a single P, must render byte-identical output,
// and on amd64 that output must hash to its goldenTables entry. F3, F5,
// A1 and A4 are skipped because some of their columns are wall-clock
// measurements (F3 serves real functions, F5 and A1 time the kernel, A4
// times batched invocations). The hashes are skipped off amd64, where the
// compiler may fuse multiply-adds and legitimately round differently.
func TestExperimentsDeterministic(t *testing.T) {
	wallClock := map[string]bool{"F3": true, "F5": true, "A1": true, "A4": true}
	for _, e := range append(All(), Ablations()...) {
		if wallClock[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			first := e.Run(Small).String()
			prev := runtime.GOMAXPROCS(1)
			second := e.Run(Small).String()
			runtime.GOMAXPROCS(prev)
			if first != second {
				t.Fatalf("output differs between runs:\n--- GOMAXPROCS=%d\n%s\n--- GOMAXPROCS=1\n%s", prev, first, second)
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(first))); got != goldenTables[e.ID] {
				t.Fatalf("table hash %s, pinned %s:\n%s", got, goldenTables[e.ID], first)
			}
		})
	}
}
