// Elastic: serverless-style autoscaling under bursty load, with the
// tracer's ASCII Gantt chart showing the fleet breathing — nodes light up
// during bursts and drain in the quiet. Run with:
//
//	go run ./examples/elastic
package main

import (
	"fmt"

	"continuum/internal/autoscale"
	"continuum/internal/core"
	"continuum/internal/metrics"
	"continuum/internal/node"
	"continuum/internal/trace"
	"continuum/internal/workload"
)

func main() {
	c := core.New()
	c.Tracer = trace.New(0)
	hub := c.AddVertex()

	pool := autoscale.NewPool(c, hub, autoscale.Config{
		Min: 1, Max: 6,
		Template: node.Spec{
			Name: "worker", Class: node.Cloud,
			Cores: 2, CoreFlops: 2e9, MemBytes: 8 << 30,
			IdleWatts: 15, ActiveWattsCore: 10,
		},
		LinkLatency: 0.002, LinkCapacity: 1.25e9,
		ProvisionDelay: 1.5,
		DrainAfter:     6,
		QueuePerNode:   2,
	})

	rng := workload.NewRNG(7)
	lat := metrics.NewHistogram()

	// Three bursts of 24 one-second tasks, 30 seconds apart.
	t0 := 0.0
	for burst := 0; burst < 3; burst++ {
		arr := workload.NewPoisson(rng.Split(), 12)
		at := t0
		for i := 0; i < 24; i++ {
			at += arr.Next()
			submit := at
			c.K.At(submit, func() {
				pool.Submit(2e9, 0, node.NoAccel, func() {
					lat.Add(c.K.Now() - submit)
				})
			})
		}
		t0 += 30
	}
	c.K.Run()

	fmt.Printf("72 tasks in 3 bursts: mean latency %s, p99 %s\n",
		metrics.FormatDuration(lat.Mean()), metrics.FormatDuration(lat.P99()))
	fmt.Printf("fleet: %d scale-ups (%d cold), %d scale-downs, %.0f node-seconds billed\n\n",
		pool.ScaleUps, pool.ColdProvisions, pool.ScaleDowns, pool.NodeSeconds())

	fmt.Println("per-worker busy timeline (the fleet breathing):")
	fmt.Print(c.Tracer.Gantt(72))
	ups := len(c.Tracer.Filter(trace.KindScaleUp))
	downs := len(c.Tracer.Filter(trace.KindScaleDown))
	fmt.Printf("\ntraced transitions: %d scale-ups, %d scale-downs\n", ups, downs)
}
