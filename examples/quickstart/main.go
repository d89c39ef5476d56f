// Quickstart: a parallel map-reduce in a few lines of plain Go.
//
// Estimate π by Monte-Carlo in seeded shards, counted on a bounded pool
// of goroutines and summed. Each shard owns its RNG stream, so the
// estimate does not depend on scheduling. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"continuum/internal/workload"
)

func main() {
	const shards, perShard = 32, 200000
	pi := estimatePi(shards, perShard, 8)
	fmt.Printf("π ≈ %.5f from %d samples across %d parallel shards\n",
		pi, shards*perShard, shards)
}

// estimatePi counts darts inside the unit circle in shards seeded 1..shards,
// running at most workers shards at a time.
func estimatePi(shards, perShard, workers int) float64 {
	counts := make([]int, shards)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			rng := workload.NewRNG(uint64(i + 1))
			for j := 0; j < perShard; j++ {
				x, y := rng.Float64(), rng.Float64()
				if x*x+y*y < 1 {
					counts[i]++
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, c := range counts {
		total += c
	}
	return 4 * float64(total) / float64(shards*perShard)
}
