package experiments

import (
	"math"
	"testing"

	"continuum/internal/netsim"
	"continuum/internal/sim"
	"continuum/internal/workload"
)

// twoSiteRouter: origin(0) -- near endpoint(1) at 1ms -- far endpoint(2)
// at 50ms.
func twoSiteRouter(pick func(*f9Router, int) *f9Endpoint, nearCap, farCap int) (*sim.Kernel, *f9Router) {
	k := sim.NewKernel()
	net := netsim.New(k, 3)
	net.AddDuplexLink(0, 1, 0.001, 1e9)
	net.AddDuplexLink(0, 2, 0.050, 1e9)
	eps := []*f9Endpoint{newF9Endpoint(k, 1, nearCap), newF9Endpoint(k, 2, farCap)}
	return k, &f9Router{net: net, eps: eps, pick: pick}
}

func TestF9EndpointColdThenWarm(t *testing.T) {
	k := sim.NewKernel()
	ep := newF9Endpoint(k, 0, 2)
	var t1, t2 float64
	ep.invoke(k, 0.2, func() { t1 = k.Now() })
	k.Run()
	if want := f9Cold + 0.2; math.Abs(t1-want) > 1e-9 {
		t.Fatalf("cold finish = %v, want %v", t1, want)
	}
	ep.invoke(k, 0.2, func() { t2 = k.Now() })
	k.Run()
	if want := t1 + 0.2; math.Abs(t2-want) > 1e-9 {
		t.Fatalf("warm finish = %v, want %v", t2, want)
	}
	if ep.coldStarts != 1 || ep.warmHits != 1 {
		t.Fatalf("cold/warm = %d/%d", ep.coldStarts, ep.warmHits)
	}
}

func TestF9EndpointWarmTTLExpires(t *testing.T) {
	k := sim.NewKernel()
	ep := newF9Endpoint(k, 0, 1)
	ep.invoke(k, 0.1, func() {})
	k.Run()
	k.At(k.Now()+f9WarmTTL+1, func() { ep.invoke(k, 0.1, func() {}) })
	k.Run()
	if ep.coldStarts != 2 {
		t.Fatalf("coldStarts = %d, want 2 (TTL expiry)", ep.coldStarts)
	}
}

// TestF9EndpointCapacityQueues also pins that a finishing invocation
// parks its container before releasing the slot, so the queued one
// behind it starts warm.
func TestF9EndpointCapacityQueues(t *testing.T) {
	k := sim.NewKernel()
	ep := newF9Endpoint(k, 0, 1)
	var done []float64
	for i := 0; i < 3; i++ {
		ep.invoke(k, 1.0, func() { done = append(done, k.Now()) })
	}
	k.Run()
	want := []float64{f9Cold + 1, f9Cold + 2, f9Cold + 3}
	for i := range want {
		if math.Abs(done[i]-want[i]) > 1e-9 {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if ep.coldStarts != 1 || ep.backlog() != 0 {
		t.Fatalf("coldStarts = %d, backlog = %d after drain", ep.coldStarts, ep.backlog())
	}
}

func TestF9NearestPicksNearEndpoint(t *testing.T) {
	k, r := twoSiteRouter(f9Nearest, 4, 4)
	var lat float64
	r.invoke(0, 0.01, func(l float64) { lat = l })
	k.Run()
	if r.eps[0].invocations != 1 || r.eps[1].invocations != 0 {
		t.Fatal("nearest did not pick the near endpoint")
	}
	// 2x 1ms + cold start + 10ms service (+ tiny transmission).
	if want := 0.012 + f9Cold; lat < want || lat > want+0.001 {
		t.Fatalf("latency = %v, want ~%v", lat, want)
	}
}

func TestF9LeastLoadedAvoidsBacklog(t *testing.T) {
	k, r := twoSiteRouter(f9LeastLoaded, 1, 1)
	for i := 0; i < 4; i++ {
		r.invoke(0, 1.0, func(float64) {})
	}
	k.Run()
	if near, far := r.eps[0].invocations, r.eps[1].invocations; near != 2 || far != 2 {
		t.Fatalf("least-loaded spread near=%d far=%d, want 2/2", near, far)
	}
}

// TestF9TwoChoicesDrawOrder: with every load equal, two-choices keeps its
// first draw, so its picks follow the first of each pair of draws.
func TestF9TwoChoicesDrawOrder(t *testing.T) {
	const n = 8
	k := sim.NewKernel()
	r := &f9Router{net: netsim.New(k, 1), rng: workload.NewRNG(3)}
	for i := 0; i < n; i++ {
		r.eps = append(r.eps, newF9Endpoint(k, 0, 2))
	}
	twin := workload.NewRNG(3)
	for i := 0; i < 20; i++ {
		want := r.eps[twin.Intn(n)]
		twin.Intn(n)
		if got := f9TwoChoices(r, 0); got != want {
			t.Fatalf("pick %d: two-choices did not keep its first draw", i)
		}
	}
}

func TestF9TwoChoicesSpreads(t *testing.T) {
	k := sim.NewKernel()
	const n = 8
	net := netsim.New(k, n+1)
	r := &f9Router{net: net, rng: workload.NewRNG(1), pick: f9TwoChoices}
	for i := 0; i < n; i++ {
		net.AddDuplexLink(0, i+1, 0.001, 1e9)
		r.eps = append(r.eps, newF9Endpoint(k, i+1, 2))
	}
	for i := 0; i < 200; i++ {
		r.invoke(0, 0.5, func(float64) {})
	}
	k.Run()
	for i, ep := range r.eps {
		if ep.invocations == 0 {
			t.Fatalf("endpoint %d starved", i)
		}
	}
}

func TestF9NearestSpillFallsBack(t *testing.T) {
	k, r := twoSiteRouter(f9NearestSpill, 1, 8)
	for i := 0; i < 10; i++ {
		r.invoke(0, 1.0, func(float64) {})
	}
	k.Run()
	if r.eps[1].invocations == 0 {
		t.Fatal("spill policy never spilled")
	}
	if r.eps[0].invocations == 0 {
		t.Fatal("spill policy never used the near endpoint")
	}
}

// TestF9RouterScale drives 200 endpoints with 20k two-choices invocations
// and checks each one completes exactly once.
func TestF9RouterScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const nEps, calls = 200, 20000
	k := sim.NewKernel()
	net := netsim.New(k, nEps+2)
	hub, client := 0, nEps+1
	rng := workload.NewRNG(4)
	r := &f9Router{net: net, rng: rng.Split(), pick: f9TwoChoices}
	for v := 1; v <= nEps; v++ {
		net.AddDuplexLink(v, hub, 0.002, 1.25e9)
		r.eps = append(r.eps, newF9Endpoint(k, v, 4))
	}
	net.AddDuplexLink(client, hub, 0.001, 1.25e9)

	done := 0
	arr := workload.NewPoisson(rng.Split(), 2000)
	at := 0.0
	for i := 0; i < calls; i++ {
		at += arr.Next()
		k.At(at, func() { r.invoke(client, 0.01, func(float64) { done++ }) })
	}
	k.Run()
	if done != calls {
		t.Fatalf("completed %d of %d", done, calls)
	}
	total := int64(0)
	for _, ep := range r.eps {
		total += ep.invocations
	}
	if total != calls {
		t.Fatalf("endpoint invocations %d != %d", total, calls)
	}
}
