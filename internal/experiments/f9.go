package experiments

import (
	"fmt"
	"math"

	"continuum/internal/metrics"
	"continuum/internal/netsim"
	"continuum/internal/sim"
	"continuum/internal/workload"
)

// F9 serves one function on every endpoint, so each endpoint keeps a
// single warm pool.
const (
	f9Cold     = 0.2 // provisioning delay of a cold container, seconds
	f9WarmTTL  = 120 // idle lifetime of a warm container, seconds
	f9MsgBytes = 1e3 // request and response size
)

// f9Endpoint is a function-serving site on the simulated network:
// invocations queue for capacity slots and pay a cold start unless a warm
// container is idle.
type f9Endpoint struct {
	vertex int
	slots  *sim.Resource
	warm   []float64 // idle-since times of warm containers, newest last

	// pending counts invocations the router has dispatched toward this
	// endpoint that have not yet arrived; without it, load-aware pickers
	// would route on stale zeros while requests are in flight.
	pending int64

	coldStarts, warmHits, invocations int64
}

func newF9Endpoint(k *sim.Kernel, vertex, capacity int) *f9Endpoint {
	return &f9Endpoint{vertex: vertex, slots: sim.NewResource(k, "slots", int64(capacity))}
}

// backlog counts running, queued and in-flight invocations.
func (ep *f9Endpoint) backlog() int64 {
	return ep.slots.InUse() + int64(ep.slots.QueueLen()) + ep.pending
}

func (ep *f9Endpoint) load() float64 {
	return float64(ep.backlog()) / float64(ep.slots.Capacity())
}

// takeWarm pops the newest warm container, discarding expired ones.
func (ep *f9Endpoint) takeWarm(now float64) bool {
	for len(ep.warm) > 0 {
		idleSince := ep.warm[len(ep.warm)-1]
		ep.warm = ep.warm[:len(ep.warm)-1]
		if now-idleSince <= f9WarmTTL {
			return true
		}
	}
	return false
}

// invoke runs one invocation of the given service time; done fires in
// virtual time when it finishes.
func (ep *f9Endpoint) invoke(k *sim.Kernel, service float64, done func()) {
	ep.slots.Acquire(1, func() {
		d := service
		if ep.takeWarm(k.Now()) {
			ep.warmHits++
		} else {
			ep.coldStarts++
			d += f9Cold
		}
		k.After(d, func() {
			ep.warm = append(ep.warm, k.Now())
			ep.slots.Release(1)
			ep.invocations++
			done()
		})
	})
}

// f9Router federates endpoints over a network; pick chooses the endpoint
// for an invocation from origin, drawing from rng if it is randomized.
type f9Router struct {
	net  *netsim.Network
	eps  []*f9Endpoint
	rng  *workload.RNG
	pick func(r *f9Router, origin int) *f9Endpoint
}

// f9Nearest picks the endpoint with minimum network latency from the
// origin: optimal when nobody else is talking.
func f9Nearest(r *f9Router, origin int) *f9Endpoint {
	var best *f9Endpoint
	bestLat := math.Inf(1)
	for _, ep := range r.eps {
		if lat := r.net.Latency(origin, ep.vertex); lat < bestLat {
			best, bestLat = ep, lat
		}
	}
	return best
}

// f9LeastLoaded picks the endpoint with the smallest backlog/capacity
// ratio, ignoring distance: funcX's spread heuristic.
func f9LeastLoaded(r *f9Router, _ int) *f9Endpoint {
	var best *f9Endpoint
	bestLoad := math.Inf(1)
	for _, ep := range r.eps {
		if load := ep.load(); load < bestLoad {
			best, bestLoad = ep, load
		}
	}
	return best
}

// f9TwoChoices samples two random endpoints and takes the less loaded:
// near-optimal spread with O(1) state and no global view.
func f9TwoChoices(r *f9Router, _ int) *f9Endpoint {
	a := r.eps[r.rng.Intn(len(r.eps))]
	b := r.eps[r.rng.Intn(len(r.eps))]
	if b.load() < a.load() {
		return b
	}
	return a
}

// f9NearestSpill prefers the nearest endpoint unless its backlog exceeds
// twice its capacity, then falls back to least-loaded.
func f9NearestSpill(r *f9Router, origin int) *f9Endpoint {
	near := f9Nearest(r, origin)
	if float64(near.backlog()) <= 2*float64(near.slots.Capacity()) {
		return near
	}
	return f9LeastLoaded(r, origin)
}

// invoke routes one invocation from origin: the request travels to the
// chosen endpoint, executes, and the response returns to the origin.
// done receives the end-to-end latency in virtual seconds.
func (r *f9Router) invoke(origin int, service float64, done func(latency float64)) {
	k := r.net.Kernel()
	start := k.Now()
	ep := r.pick(r, origin)
	ep.pending++
	r.net.Message(origin, ep.vertex, f9MsgBytes, func() {
		ep.pending--
		ep.invoke(k, service, func() {
			r.net.Message(ep.vertex, origin, f9MsgBytes, func() {
				done(k.Now() - start)
			})
		})
	})
}

// F9Routing studies request routing for federated serverless at
// continuum scale (virtual time, hundreds of endpoints): clients cluster
// into metro regions, each with a local endpoint pool, but demand is
// skewed — one region is a hotspot. Nearest routing gives minimum RTT
// until the hotspot saturates; least-loaded spreads perfectly but drags
// every request across the WAN; power-of-two-choices and nearest-spill
// are the practical compromises. The crossover as skew grows is the
// figure.
func F9Routing(size Size) *Result {
	regions := 8
	epsPerRegion := 4
	invocations := 4000
	if size == Small {
		regions = 4
		epsPerRegion = 2
		invocations = 800
	}

	// hotFracs: fraction of demand concentrated on region 0.
	hotFracs := []float64{0.125, 0.5, 0.9}
	if size == Small {
		hotFracs = []float64{0.25, 0.9}
	}

	type cell struct {
		mean, p99 float64
	}
	run := func(pick func(*f9Router, int) *f9Endpoint, hotFrac float64) cell {
		k := sim.NewKernel()
		// Topology: per-region client vertex and endpoint vertices; metro
		// links 2ms, inter-region WAN 30ms via a core vertex.
		net := netsim.New(k, 1+regions*(1+epsPerRegion))
		coreV := 0
		rng := workload.NewRNG(uint64(regions)*1000 + uint64(hotFrac*100))
		r := &f9Router{net: net, pick: pick}
		clients := make([]int, regions)
		v := 1
		for rg := 0; rg < regions; rg++ {
			clients[rg] = v
			v++
			net.AddDuplexLink(clients[rg], coreV, 0.030, 1.25e9)
			for e := 0; e < epsPerRegion; e++ {
				net.AddDuplexLink(v, clients[rg], 0.002, 1.25e9)
				r.eps = append(r.eps, newF9Endpoint(k, v, 4))
				v++
			}
		}
		r.rng = rng.Split()

		lat := metrics.NewHistogram()
		arr := workload.NewPoisson(rng.Split(), 200) // aggregate arrival rate
		at := 0.0
		for i := 0; i < invocations; i++ {
			at += arr.Next()
			origin := clients[0]
			if rng.Float64() >= hotFrac {
				origin = clients[1+rng.Intn(regions-1)]
			}
			k.At(at, func() { r.invoke(origin, 0.050, lat.Add) })
		}
		k.Run()
		return cell{lat.Mean(), lat.P99()}
	}

	pickers := []struct {
		name string
		pick func(*f9Router, int) *f9Endpoint
	}{
		{"nearest", f9Nearest},
		{"least-loaded", f9LeastLoaded},
		{"two-choices", f9TwoChoices},
		{"nearest-spill", f9NearestSpill},
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("F9 — serverless routing at scale (%d endpoints, hotspot sweep)", regions*epsPerRegion),
		"hot_frac", "policy", "mean_lat", "p99_lat",
	)
	for _, hf := range hotFracs {
		for _, p := range pickers {
			c := run(p.pick, hf)
			tbl.AddRow(
				fmt.Sprintf("%.0f%%", hf*100),
				p.name,
				metrics.FormatDuration(c.mean),
				metrics.FormatDuration(c.p99),
			)
		}
	}
	return &Result{
		ID:    "F9",
		Title: "Routing federated serverless under demand skew",
		Table: tbl,
		Notes: "Expected shape: under uniform demand nearest wins (metro RTT only); as the hotspot concentrates, nearest saturates the hot region's pool and its p99 explodes while least-loaded stays flat (it always pays the WAN); nearest-spill tracks the better of the two across the sweep.",
	}
}
