package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildGroupWorkload wires a deterministic cross-shard workload: each
// shard runs a self-perpetuating chain of local events, and every k'th
// event posts a message to the next shard. It returns a per-shard event
// log so serial and parallel runs can be compared bit-for-bit.
func buildGroupWorkload(g *Group, perShard int) [][]string {
	logs := make([][]string, len(g.shards))
	for s := 0; s < len(g.shards); s++ {
		s := s
		rng := rand.New(rand.NewSource(int64(1000 + s)))
		k := g.Shard(s)
		remaining := perShard
		var step func(id int)
		step = func(id int) {
			k.After(0.001+rng.Float64(), func() {
				logs[s] = append(logs[s], fmt.Sprintf("%d@%.9f", id, k.Now()))
				if remaining <= 0 {
					return
				}
				remaining--
				step(id + 1)
				if id%16 == 0 {
					dst := (s + 1) % len(g.shards)
					at := k.Now() + g.Lookahead() + rng.Float64()
					g.Post(s, dst, at, func() {
						logs[dst] = append(logs[dst], fmt.Sprintf("x%d@%.9f", id, g.Shard(dst).Now()))
					})
				}
			})
		}
		step(s * 1000000)
	}
	return logs
}

// TestGroupSerialParallelIdentical is the determinism core of -parallel:
// the same seeded workload run with 1 worker and with many workers must
// produce identical per-shard event logs and identical fired totals.
func TestGroupSerialParallelIdentical(t *testing.T) {
	run := func(workers int) ([][]string, uint64) {
		g := NewGroup(8, 0.05)
		logs := buildGroupWorkload(g, 2000)
		total := g.Run(workers)
		return logs, total
	}
	serialLogs, serialTotal := run(1)
	parallelLogs, parallelTotal := run(8)
	if serialTotal != parallelTotal {
		t.Fatalf("fired totals differ: serial %d, parallel %d", serialTotal, parallelTotal)
	}
	if serialTotal == 0 {
		t.Fatal("workload fired no events")
	}
	for s := range serialLogs {
		if len(serialLogs[s]) != len(parallelLogs[s]) {
			t.Fatalf("shard %d log lengths differ: serial %d, parallel %d",
				s, len(serialLogs[s]), len(parallelLogs[s]))
		}
		for i := range serialLogs[s] {
			if serialLogs[s][i] != parallelLogs[s][i] {
				t.Fatalf("shard %d event %d differs: serial %q, parallel %q",
					s, i, serialLogs[s][i], parallelLogs[s][i])
			}
		}
	}
}

func TestGroupPostLookaheadViolationPanics(t *testing.T) {
	g := NewGroup(2, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("post inside the lookahead window did not panic")
		}
	}()
	g.Post(0, 1, 0.5, func() {})
}

func TestGroupRunEmpty(t *testing.T) {
	g := NewGroup(4, 0.1)
	if n := g.Run(4); n != 0 {
		t.Fatalf("empty group fired %d events", n)
	}
}

// TestGroupWindowClockDiscipline: a shard's clock must never outrun its
// own last event into a future window (runWindow, unlike RunUntil, does
// not jump to the deadline), or a barrier post could look like the past.
func TestGroupWindowClockDiscipline(t *testing.T) {
	g := NewGroup(2, 0.5)
	// Shard 0 has events at 0.1 and then 10; shard 1 only at 5. Windows
	// must interleave without shard 1's emptiness dragging clocks around.
	var order []string
	g.Shard(0).At(0.1, func() {
		order = append(order, "a")
		g.Post(0, 1, 5, func() { order = append(order, "b") })
	})
	g.Shard(0).At(10, func() { order = append(order, "c") })
	g.Run(1)
	want := []string{"a", "b", "c"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
