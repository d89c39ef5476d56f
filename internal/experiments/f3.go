package experiments

import (
	"fmt"
	"sync"
	"time"

	"continuum/internal/faas"
	"continuum/internal/metrics"
)

// f3Registry registers the benchmark function: a short spin standing in
// for a real handler (sleep-based handlers understate scheduler effects).
func f3Registry(serviceTime time.Duration) *faas.Registry {
	reg := faas.NewRegistry()
	reg.Register("work", func(p []byte) ([]byte, error) {
		deadline := time.Now().Add(serviceTime)
		for time.Now().Before(deadline) {
		}
		return p, nil
	})
	return reg
}

func f3Endpoints(reg *faas.Registry, cold time.Duration, warmTTL time.Duration) []*faas.Endpoint {
	caps := []int{2, 4, 8, 16}
	eps := make([]*faas.Endpoint, len(caps))
	for i, cp := range caps {
		eps[i] = faas.NewEndpoint(faas.EndpointConfig{
			Name:      fmt.Sprintf("ep%d", i),
			Capacity:  cp,
			ColdStart: cold,
			WarmTTL:   warmTTL,
		}, reg)
	}
	return eps
}

// f3Drive fires `calls` invocations from `conc` concurrent clients through
// inv and returns throughput (calls/sec) and mean latency.
func f3Drive(inv faas.Invoker, conc, calls int) (throughput float64, meanLat time.Duration) {
	var wg sync.WaitGroup
	per := calls / conc
	var latTotal int64
	var mu sync.Mutex
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < per; i++ {
				t0 := time.Now()
				if _, err := inv.Invoke("work", []byte("x")); err != nil {
					panic(fmt.Sprintf("experiments: F3 invoke: %v", err))
				}
				local += int64(time.Since(t0))
			}
			mu.Lock()
			latTotal += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	done := per * conc
	return float64(done) / elapsed.Seconds(), time.Duration(latTotal / int64(done))
}

// F3FaaS measures the federated function-serving layer for real (wall
// clock): cold-start vs warm throughput across offered concurrency, and
// the effect of request batching. This is the funcX-shaped experiment.
func F3FaaS(size Size) *Result {
	serviceTime := 200 * time.Microsecond
	cold := 2 * time.Millisecond
	concs := []int{1, 4, 16, 64}
	callsPerCell := 512
	if size == Small {
		concs = []int{1, 8}
		callsPerCell = 128
	}

	tbl := metrics.NewTable(
		"F3 — federated FaaS: throughput and latency vs offered concurrency",
		"conc", "mode", "calls/s", "mean_lat", "cold_starts", "warm_hits",
	)

	for _, conc := range concs {
		// Cold: TTL 0 expires every container immediately, so every call
		// pays provisioning.
		{
			reg := f3Registry(serviceTime)
			eps := f3Endpoints(reg, cold, time.Nanosecond)
			r := faas.NewRouter(eps...)
			tput, lat := f3Drive(r, conc, callsPerCell)
			tbl.AddRow(fmt.Sprintf("%d", conc), "cold",
				fmt.Sprintf("%.0f", tput), lat.Round(time.Microsecond).String(),
				fmt.Sprintf("%d", sumCold(eps)), fmt.Sprintf("%d", sumWarm(eps)))
		}
		// Warm: long TTL; after the first touch containers are reused.
		{
			reg := f3Registry(serviceTime)
			eps := f3Endpoints(reg, cold, time.Minute)
			r := faas.NewRouter(eps...)
			tput, lat := f3Drive(r, conc, callsPerCell)
			tbl.AddRow(fmt.Sprintf("%d", conc), "warm",
				fmt.Sprintf("%.0f", tput), lat.Round(time.Microsecond).String(),
				fmt.Sprintf("%d", sumCold(eps)), fmt.Sprintf("%d", sumWarm(eps)))
		}
		// Batched: warm endpoints behind a batcher.
		{
			reg := f3Registry(serviceTime)
			eps := f3Endpoints(reg, cold, time.Minute)
			r := faas.NewRouter(eps...)
			b := faas.NewBatcher(r, 16, 500*time.Microsecond)
			tput, lat := f3Drive(b, conc, callsPerCell)
			b.Close()
			tbl.AddRow(fmt.Sprintf("%d", conc), "warm+batch",
				fmt.Sprintf("%.0f", tput), lat.Round(time.Microsecond).String(),
				fmt.Sprintf("%d", sumCold(eps)), fmt.Sprintf("%d", sumWarm(eps)))
		}
	}
	return &Result{
		ID:    "F3",
		Title: "Federated function serving (funcX-shaped, wall clock)",
		Table: tbl,
		Notes: "Expected shape: warm throughput ~10x cold for sub-ms functions (2ms provisioning vs 0.2ms service); batching raises high-concurrency throughput further at some latency cost; cold_starts ~= calls in cold mode and ~= touched containers in warm mode.",
	}
}

func sumCold(eps []*faas.Endpoint) int64 {
	var n int64
	for _, ep := range eps {
		n += ep.ColdStarts()
	}
	return n
}

func sumWarm(eps []*faas.Endpoint) int64 {
	var n int64
	for _, ep := range eps {
		n += ep.WarmHits()
	}
	return n
}
