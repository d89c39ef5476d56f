package scenario

import (
	"fmt"
	"strconv"
)

// StressSpec parameterizes GenerateStress.
type StressSpec struct {
	// Nodes is the total fleet size: 1 cloud, a fog tier (Nodes/64,
	// minimum 2), and the rest gateways (minimum total 8).
	Nodes int
	// Seed drives the whole run (see Scenario.Seed).
	Seed uint64
	// Origins bounds how many gateways generate load (default 64 —
	// enough to exercise every subsystem without the job count growing
	// linearly in fleet size).
	Origins int
	// Rate is per-origin arrivals/second (default 2).
	Rate float64
	// Horizon is the stream horizon in scenario seconds (default 20).
	Horizon float64
}

// GenerateStress builds a deterministic large-fleet scenario: a
// cloud-rooted fog/gateway tree with load from a capped set of origins
// and an event script that hits every mechanism at once — a flash
// crowd, a correlated gateway cascade, fog-tier chaos, a hard fog
// failure, and WAN link degradation. It is the scale harness: a
// 1000-node instance must validate and complete a sim run within the CI
// budget (see Makefile `stress`), which keeps Validate, compile, and
// the engine's per-event costs honest as the repo grows.
func GenerateStress(spec StressSpec) *Scenario {
	n := spec.Nodes
	if n < 8 {
		n = 8
	}
	fogs := n / 64
	if fogs < 2 {
		fogs = 2
	}
	gws := n - 1 - fogs
	origins := spec.Origins
	if origins <= 0 {
		origins = 64
	}
	if origins > gws {
		origins = gws
	}
	rate := spec.Rate
	if rate <= 0 {
		rate = 2
	}
	horizon := spec.Horizon
	if horizon <= 0 {
		horizon = 20
	}

	s := &Scenario{
		Name:    fmt.Sprintf("stress-%d", n),
		Seed:    spec.Seed,
		Retries: 10,
		Nodes:   make([]NodeJSON, 0, n),
		Links:   make([]LinkJSON, 0, n-1),
	}
	s.Nodes = append(s.Nodes, NodeJSON{
		Name: "cloud", Class: "cloud", Cores: 96, CoreFlops: 3.2e9,
		MemBytes: 384 << 30, IdleWatts: 300, ActiveWatts: 12,
		DollarPerHour: 24, EgressPerByte: 9e-11,
	})
	for f := 0; f < fogs; f++ {
		name := "fog" + strconv.Itoa(f)
		s.Nodes = append(s.Nodes, NodeJSON{
			Name: name, Class: "fog", Cores: 16,
			CoreFlops: 3e9, MemBytes: 64 << 30, IdleWatts: 40, ActiveWatts: 8,
		})
		s.Links = append(s.Links, LinkJSON{
			A: name, B: "cloud", Latency: 0.020, Capacity: 1.25e9,
		})
	}
	for g := 0; g < gws; g++ {
		name := gatewayName(g)
		s.Nodes = append(s.Nodes, NodeJSON{
			Name: name, Class: "gateway", Cores: 4, CoreFlops: 2.5e9,
			MemBytes: 4 << 30, IdleWatts: 2, ActiveWatts: 3,
		})
		s.Links = append(s.Links, LinkJSON{
			A: name, B: s.Nodes[1+g%fogs].Name, Latency: 0.002, Capacity: 1.25e8,
		})
	}

	// Spread the origins evenly over the gateway tier so every fog
	// subtree carries load.
	stride := gws / origins
	if stride < 1 {
		stride = 1
	}
	var originNames []string
	for g := 0; g < gws && len(originNames) < origins; g += stride {
		originNames = append(originNames, s.Nodes[1+fogs+g].Name)
	}
	s.Stream = &StreamJSON{
		Policy: "greedy-latency", Origins: originNames,
		RatePerOrigin: rate, Horizon: horizon,
		ScalarWork: 5e8, InputBytes: 1024, OutputBytes: 128,
	}

	// One of everything, overlapping: the point is the combinatorics,
	// not any single mechanism.
	cascadeCount := gws / 20
	if cascadeCount < 1 {
		cascadeCount = 1
	}
	s.Events = []EventJSON{
		{At: 0.1 * horizon, Kind: "chaos", Target: "class:fog", Spec: "err=0.1,delay=5ms,delayp=0.3", For: 0.5 * horizon},
		{At: 0.25 * horizon, Kind: "workload", Factor: 3},
		{At: 0.3 * horizon, Kind: "cascade", Target: "gw*", Count: cascadeCount, Spacing: 0.05, For: 0.15 * horizon},
		{At: 0.4 * horizon, Kind: "fail", Target: "fog0", For: 0.25 * horizon},
		{At: 0.6 * horizon, Kind: "workload", Factor: 1},
		{At: 0.7 * horizon, Kind: "degrade-link", Target: "fog1->cloud", Factor: 4},
		{At: 0.9 * horizon, Kind: "restore-link", Target: "fog1->cloud"},
	}
	return s
}

// gatewayName is fmt.Sprintf("gw%04d", g) without the formatter.
func gatewayName(g int) string {
	d := strconv.Itoa(g)
	return "gw" + "0000"[min(len(d), 4):] + d
}
