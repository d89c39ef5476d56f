package experiments

import (
	"fmt"
	"time"

	"continuum/internal/metrics"
	"continuum/internal/netsim"
	"continuum/internal/sim"
	"continuum/internal/workload"
)

// F5SimScaling validates the substrate itself: discrete-event throughput
// (events/sec of wall clock) as the simulated continuum grows from 10 to
// 10,000 nodes. The repro band called for "multi-node sim"; this is the
// evidence it scales on one laptop core.
func F5SimScaling(size Size) *Result {
	nodeCounts := []int{10, 100, 1000, 10000}
	msgsPerNode := 20
	if size == Small {
		nodeCounts = []int{10, 100, 1000}
		msgsPerNode = 10
	}

	tbl := metrics.NewTable(
		"F5 — simulator scaling: event throughput vs continuum size",
		"nodes", "messages", "cold_wall", "cold_ev/s", "cold_searches", "warm_wall", "warm_ev/s", "warm_searches",
	)

	for _, nn := range nodeCounts {
		k := sim.NewKernel()
		net, _, leaves := netsim.Star(k, netsim.StarSpec{
			Leaves: nn, LeafLatency: 0.001, LeafCapacity: 1e9,
		})
		rng := workload.NewRNG(uint64(nn))
		total := nn * msgsPerNode

		// Cold phase: first contact from every source builds its routing
		// table (one Dijkstra + O(V) state per source), so this round
		// includes routing construction. Each round reports the searches
		// it started.
		round := func() (time.Duration, uint64, int64) {
			delivered := 0
			for i := 0; i < total; i++ {
				src := leaves[rng.Intn(len(leaves))]
				dst := leaves[rng.Intn(len(leaves))]
				at := k.Now() + rng.Float64()*10
				k.At(at, func() {
					net.Message(src, dst, 1e3, func() { delivered++ })
				})
			}
			before, searches := k.Fired(), net.Searches
			start := time.Now()
			k.Run()
			wall := time.Since(start)
			if delivered != total {
				panic(fmt.Sprintf("experiments: F5 delivered %d of %d", delivered, total))
			}
			return wall, k.Fired() - before, net.Searches - searches
		}
		coldWall, coldEvents, coldSearches := round()
		warmWall, warmEvents, warmSearches := round() // routing tables now cached

		tbl.AddRow(
			fmt.Sprintf("%d", nn),
			fmt.Sprintf("%d", total),
			coldWall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(coldEvents)/coldWall.Seconds()),
			fmt.Sprintf("%d", coldSearches),
			warmWall.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(warmEvents)/warmWall.Seconds()),
			fmt.Sprintf("%d", warmSearches),
		)
	}
	return &Result{
		ID:    "F5",
		Title: "Substrate scaling (events/sec vs node count)",
		Table: tbl,
		Notes: "Expected shape: warm events/sec roughly flat in node count (heap log factor only); the cold column degrades at 10k nodes because per-source routing tables are O(V) each — the practical single-process ceiling, paid once: the cold round starts a search per source, the warm round none.",
	}
}
