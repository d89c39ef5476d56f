package experiments

import (
	"strings"
	"testing"
)

func TestAblationsRegistered(t *testing.T) {
	if len(Ablations()) != 5 {
		t.Fatalf("ablations = %d", len(Ablations()))
	}
}

func TestAblationEventQueueShape(t *testing.T) {
	r := AblationEventQueue(Small)
	rows := csvRows(t, r)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// At 10000 pending the heap must win.
	last := rows[len(rows)-1]
	speedup := num(t, last[3])
	if speedup < 1.0 {
		t.Fatalf("heap speedup %vx < 1 at %s pending", speedup, last[0])
	}
}

func TestAblationFairShareShape(t *testing.T) {
	r := AblationFairShare(Small)
	rows := csvRows(t, r)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Max-min wastes (row 4, col 1) must be far below equal split (col 2).
	if !strings.Contains(rows[3][0], "wasted") {
		t.Fatalf("unexpected last row: %v", rows[3])
	}
}

func TestAblationHEFTRankShape(t *testing.T) {
	r := AblationHEFTRank(Small)
	rows := csvRows(t, r)
	ratio := num(t, rows[1][2])
	if ratio < 1.0 {
		t.Fatalf("greedy-eft %vx better than HEFT; rank ordering should not lose", ratio)
	}
}

func TestAblationBatchSizeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	r := AblationBatchSize(Small)
	rows := csvRows(t, r)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Batch=16 must beat batch=1 on throughput in the cold-heavy regime.
	if num(t, rows[1][1]) <= num(t, rows[0][1]) {
		t.Fatalf("batching did not raise throughput: %v vs %v", rows[1][1], rows[0][1])
	}
}
