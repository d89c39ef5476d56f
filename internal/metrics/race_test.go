package metrics

import (
	"sync"
	"testing"
)

// TestRegistryConcurrentHammer is the regression test for the latent data
// race the pre-observability metrics package carried: Counter increments
// were plain ++ and Registry maps were unguarded, so the first concurrent
// user (the live faas/wire path) corrupted counts or crashed the map.
// Run under -race (the tier-1 gate always does) this fails loudly on any
// reintroduction; the count assertions below catch lost updates even
// without the race detector.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 500

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Same names from every goroutine: exercises create-on-first-use
				// racing with use, and concurrent mutation of one shared metric.
				r.Counter("hits").Inc()
				r.Gauge("inflight").Add(1)
				r.Gauge("inflight").Add(-1)
				r.Histogram("lat").Add(float64(i%10+1) * 1e-3)
				_ = r.Histogram("lat").P99()
			}
		}()
	}
	wg.Wait()

	const total = goroutines * perG
	if got := r.Counter("hits").Value(); got != total {
		t.Fatalf("lost counter updates: %d, want %d", got, total)
	}
	if got := r.Histogram("lat").Count(); got != total {
		t.Fatalf("lost histogram observations: %d, want %d", got, total)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Fatalf("gauge should settle at 0, got %v", got)
	}
}
