package faas

import (
	"sync"
	"testing"
	"time"

	"continuum/internal/metrics"
)

func TestEndpointMetrics(t *testing.T) {
	reg := echoRegistry()
	ep := NewEndpoint(EndpointConfig{
		Name: "edge-1", Capacity: 2, ColdStart: time.Millisecond, WarmTTL: time.Minute,
	}, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)

	if _, err := ep.Invoke("echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Invoke("echo", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Invoke("double", []byte("c")); err != nil {
		t.Fatal(err)
	}

	lat := m.Histogram(metrics.Label("faas_invoke_duration_seconds", "ep", "edge-1", "fn", "echo"))
	if lat.Count() != 2 {
		t.Fatalf("echo latency samples = %d, want 2", lat.Count())
	}
	// First echo paid the 1ms cold start; the histogram must have seen it.
	if lat.Quantile(1) < 0.001 {
		t.Fatalf("max latency %v below the cold-start floor", lat.Quantile(1))
	}
	cold := m.Counter(metrics.Label("faas_cold_starts_total", "ep", "edge-1", "fn", "echo"))
	warm := m.Counter(metrics.Label("faas_warm_hits_total", "ep", "edge-1", "fn", "echo"))
	if cold.Value() != 1 || warm.Value() != 1 {
		t.Fatalf("cold/warm = %d/%d, want 1/1", cold.Value(), warm.Value())
	}
	inv := m.Counter(metrics.Label("faas_invocations_total", "ep", "edge-1", "fn", "double"))
	if inv.Value() != 1 {
		t.Fatalf("double invocations = %d, want 1", inv.Value())
	}
	if qw := m.Histogram(metrics.Label("faas_queue_wait_seconds", "ep", "edge-1")); qw.Count() != 3 {
		t.Fatalf("queue wait samples = %d, want 3", qw.Count())
	}
	if g := m.Gauge(metrics.Label("faas_inflight", "ep", "edge-1")).Value(); g != 0 {
		t.Fatalf("inflight gauge settled at %v, want 0", g)
	}
}

func TestEndpointMetricsBatch(t *testing.T) {
	reg := echoRegistry()
	ep := NewEndpoint(EndpointConfig{Name: "e", Capacity: 1, WarmTTL: time.Minute}, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)
	if _, err := ep.InvokeBatch("echo", [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	inv := m.Counter(metrics.Label("faas_invocations_total", "ep", "e", "fn", "echo"))
	if inv.Value() != 3 {
		t.Fatalf("batch invocations = %d, want 3", inv.Value())
	}
	// One latency sample for the batch (it shares one acquisition).
	lat := m.Histogram(metrics.Label("faas_invoke_duration_seconds", "ep", "e", "fn", "echo"))
	if lat.Count() != 1 {
		t.Fatalf("batch latency samples = %d, want 1", lat.Count())
	}
}

func TestEndpointWithoutMetricsRecordsNothing(t *testing.T) {
	reg := echoRegistry()
	ep := NewEndpoint(EndpointConfig{Name: "e", Capacity: 1, WarmTTL: time.Minute}, reg)
	if _, err := ep.Invoke("echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// No registry attached: nothing to assert beyond "it didn't crash",
	// which is the contract (absent registry = zero instrumentation).
	if ep.Invocations() != 1 {
		t.Fatalf("invocations = %d", ep.Invocations())
	}
}

func TestEndpointMetricsConcurrent(t *testing.T) {
	reg := echoRegistry()
	ep := NewEndpoint(EndpointConfig{Name: "e", Capacity: 4, WarmTTL: time.Minute}, reg)
	m := metrics.NewRegistry()
	ep.SetMetrics(m)
	var wg sync.WaitGroup
	const calls = 64
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ep.Invoke("echo", []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	lat := m.Histogram(metrics.Label("faas_invoke_duration_seconds", "ep", "e", "fn", "echo"))
	if lat.Count() != calls {
		t.Fatalf("latency samples = %d, want %d", lat.Count(), calls)
	}
	if got := m.Gauge(metrics.Label("faas_inflight", "ep", "e")).Value(); got != 0 {
		t.Fatalf("inflight = %v, want 0", got)
	}
}
