package faas

// Concurrent dispatch safety: the wire server now fans one connection's
// requests out to a worker pool, so a single Endpoint sees genuinely
// concurrent Invoke/InvokeBatch/stat traffic from many goroutines.
// This hammer (run under -race by the tier-1 gate) pins down that the
// endpoint's slot accounting, warm pool, and metrics survive it.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"continuum/internal/metrics"
)

func TestEndpointConcurrentDispatchSafety(t *testing.T) {
	const workers, calls = 16, 32 // calls divisible by 4: even case mix
	reg := NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("boom", func([]byte) ([]byte, error) { panic("boom") })
	ep := NewEndpoint(EndpointConfig{
		Name: "hammered", Capacity: 8, ColdStart: 0, WarmTTL: time.Minute,
	}, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				switch i % 4 {
				case 0, 1:
					want := fmt.Sprintf("%d-%d", w, i)
					out, err := ep.Invoke("echo", []byte(want))
					if err != nil || string(out) != want {
						t.Errorf("invoke: %q, %v", out, err)
					}
				case 2:
					outs, err := ep.InvokeBatch("echo", [][]byte{[]byte("a"), []byte("b")})
					if err != nil || len(outs) != 2 {
						t.Errorf("batch: %v, %v", outs, err)
					}
				case 3:
					if _, err := ep.Invoke("boom", nil); err == nil {
						t.Error("panicking handler returned nil error")
					}
					// Stats reads race with the invokes above by design.
					_ = ep.Running()
					_ = warmCount(ep, "echo")
				}
			}
		}()
	}
	wg.Wait()

	if got := ep.Running(); got != 0 {
		t.Fatalf("running = %d after all invocations returned", got)
	}
	// Every call completed: 2 echo + 2 batch payloads + 1 panic per 4.
	wantInv := int64(workers * calls / 4 * 5)
	if got := ep.Invocations(); got != wantInv {
		t.Fatalf("invocations = %d, want %d", got, wantInv)
	}
	if got := m.Counter(metrics.Label("faas_panics_total", "ep", "hammered", "fn", "boom")).Value(); got != int64(workers*calls/4) {
		t.Fatalf("panics = %d, want %d", got, workers*calls/4)
	}
	// Cold+warm counts one container acquisition per Invoke and per
	// batch, not per payload: 2 invokes + 1 batch + 1 panic-invoke per 4.
	wantAcq := int64(workers * calls / 4 * 4)
	if got := ep.ColdStarts() + ep.WarmHits(); got != wantAcq {
		t.Fatalf("cold+warm = %d, want %d", got, wantAcq)
	}
}
