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
	// Batching amortizes provisioning, which is what raises throughput in
	// the cold-heavy regime: unbatched, each of the 128 calls pays a cold
	// start; at batch=16 each batch pays one, and the 8 callers' batches
	// hold several calls each.
	if cold := num(t, rows[0][3]); cold != 128 {
		t.Fatalf("batch=1 paid %v cold starts, want one per call (128)", cold)
	}
	if cold := num(t, rows[1][3]); cold > 128/2 {
		t.Fatalf("batch=16 paid %v cold starts of 128 calls: batching did not amortize provisioning", cold)
	}
}
