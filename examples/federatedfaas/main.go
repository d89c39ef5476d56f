// Federated FaaS: a funcX-style federation of four heterogeneous
// endpoints behind a least-loaded router, serving a mixed function
// workload from concurrent clients — with and without request batching.
// Run with:
//
//	go run ./examples/federatedfaas
package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"continuum/internal/faas"
	"continuum/internal/metrics"
)

func registry() *faas.Registry {
	reg := faas.NewRegistry()
	reg.Register("classify", func(p []byte) ([]byte, error) {
		// Stand-in for model inference: fixed-cost spin.
		deadline := time.Now().Add(300 * time.Microsecond)
		for time.Now().Before(deadline) {
		}
		return []byte(`{"label":"cat","score":0.93}`), nil
	})
	reg.Register("stats", func(p []byte) ([]byte, error) {
		var xs []float64
		if err := json.Unmarshal(p, &xs); err != nil {
			return nil, err
		}
		sum, sq := 0.0, 0.0
		for _, x := range xs {
			sum += x
			sq += x * x
		}
		n := float64(len(xs))
		return json.Marshal(map[string]float64{
			"mean": sum / n, "var": sq/n - (sum/n)*(sum/n),
		})
	})
	return reg
}

func federation() (*faas.Router, []*faas.Endpoint) {
	reg := registry()
	configs := []faas.EndpointConfig{
		{Name: "raspberry-pi", Capacity: 2, ColdStart: 8 * time.Millisecond, WarmTTL: time.Minute},
		{Name: "campus-node", Capacity: 8, ColdStart: 4 * time.Millisecond, WarmTTL: time.Minute},
		{Name: "cloud-a", Capacity: 16, ColdStart: 2 * time.Millisecond, WarmTTL: time.Minute},
		{Name: "cloud-b", Capacity: 16, ColdStart: 2 * time.Millisecond, WarmTTL: time.Minute},
	}
	eps := make([]*faas.Endpoint, len(configs))
	for i, cfg := range configs {
		eps[i] = faas.NewEndpoint(cfg, reg)
	}
	return faas.NewRouter(eps...), eps
}

func drive(inv faas.Invoker, clients, callsPer int) (float64, time.Duration) {
	var wg sync.WaitGroup
	var latSum int64
	var mu sync.Mutex
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < callsPer; i++ {
				t0 := time.Now()
				if _, err := inv.Invoke("classify", []byte(`{"pixels":"..."}`)); err != nil {
					panic(err)
				}
				local += int64(time.Since(t0))
			}
			mu.Lock()
			latSum += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	total := clients * callsPer
	return float64(total) / time.Since(start).Seconds(),
		time.Duration(latSum / int64(total))
}

func main() {
	tbl := metrics.NewTable(
		"Federated function serving: 4 endpoints, least-loaded routing",
		"mode", "calls/s", "mean_lat", "cold", "warm", "per_endpoint",
	)

	for _, batched := range []bool{false, true} {
		router, eps := federation()
		var inv faas.Invoker = router
		var b *faas.Batcher
		if batched {
			b = faas.NewBatcher(router, 8, time.Millisecond)
			inv = b
		}
		tput, lat := drive(inv, 32, 64)
		if b != nil {
			b.Close()
		}

		perEP := ""
		var cold, warm int64
		for _, ep := range eps {
			perEP += fmt.Sprintf("%s:%d ", ep.Name(), ep.Invocations())
			cold += ep.ColdStarts()
			warm += ep.WarmHits()
		}
		mode := "direct"
		if batched {
			mode = "batched(8)"
		}
		tbl.AddRow(mode, fmt.Sprintf("%.0f", tput), lat.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", cold), fmt.Sprintf("%d", warm), perEP)
	}
	fmt.Print(tbl.String())
	fmt.Println("\nLeast-loaded routing shifts work toward the big cloud endpoints; batching amortizes container acquisitions for the hot function.")
}
