// Package core is the continuum orchestrator: it assembles the substrates
// (simulation kernel, network, nodes, data fabric) into one system, and
// executes workloads — online task streams under a placement policy, and
// static DAG schedules — while collecting the latency/energy/cost metrics
// every experiment reports.
//
// Reliability is opt-in through the runners' Options: injected faults,
// bounded retries, per-node circuit breaking, and — through
// SpeculateOptions — hedged execution, where a task in flight past the
// observed latency quantile (or a multiple of its expected runtime) gets
// a backup replica on a different node; the first finisher wins and the
// loser is preempted on delivery with its node time still billed, so
// wasted work shows up in the stats instead of hiding.
package core

import (
	"fmt"

	"continuum/internal/data"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/sim"
	"continuum/internal/trace"
)

// Continuum is a live simulated deployment.
type Continuum struct {
	K      *sim.Kernel
	Net    *netsim.Network
	Nodes  []*node.Node
	Fabric *data.Fabric
	// Tracer, when set, records task and transfer events for post-hoc
	// timelines (see internal/trace). Nil tracers cost nothing.
	Tracer *trace.Tracer
}

// New creates an empty continuum with a fresh kernel and network.
func New() *Continuum {
	k := sim.NewKernel()
	return &Continuum{K: k, Net: netsim.New(k, 0)}
}

// AddNode creates a topology vertex, instantiates spec on it, and returns
// the live node.
func (c *Continuum) AddNode(spec node.Spec) *node.Node {
	id := c.Net.AddNode()
	n := node.New(c.K, id, spec)
	c.Nodes = append(c.Nodes, n)
	return n
}

// AddVertex adds a pure network vertex (router, site junction) with no
// compute attached.
func (c *Continuum) AddVertex() int { return c.Net.AddNode() }

// Connect links two vertices with a duplex link and returns both
// directed halves, so callers that retune links mid-run (scenario
// link-degradation events) can keep handles to them.
func (c *Continuum) Connect(a, b int, latency, capacity float64) (ab, ba *netsim.Link) {
	return c.Net.AddDuplexLink(a, b, latency, capacity)
}

// Env returns the placement view of this continuum.
func (c *Continuum) Env() *placement.Env {
	return &placement.Env{Net: c.Net, Nodes: c.Nodes, Fabric: c.Fabric}
}

// TotalJoules sums energy over all node meters at the current time.
func (c *Continuum) TotalJoules() float64 {
	sum := 0.0
	for _, n := range c.Nodes {
		sum += n.Meter.Joules()
	}
	return sum
}

// ThreeTierParams configures the canonical sensors→gateways→cloud
// deployment used by the T1/T4/F6 experiments.
type ThreeTierParams struct {
	Gateways          int
	SensorsPerGateway int

	SensorLatency, SensorCapacity float64
	MetroLatency, MetroCapacity   float64
	WANLatency, WANCapacity       float64

	SensorSpec, GatewaySpec, FogSpec, CloudSpec node.Spec
}

// DefaultThreeTierParams returns a realistic metro deployment: 20ms WAN,
// 2ms metro, 5ms constrained sensor uplinks, with catalog hardware.
func DefaultThreeTierParams(gateways, sensorsPer int) ThreeTierParams {
	cat := node.Catalog()
	return ThreeTierParams{
		Gateways: gateways, SensorsPerGateway: sensorsPer,
		SensorLatency: 0.005, SensorCapacity: 2e6, // ~16 Mbit wireless
		MetroLatency: 0.002, MetroCapacity: 1.25e8, // 1 Gbit metro
		WANLatency: 0.020, WANCapacity: 1.25e9, // 10 Gbit WAN, 20ms
		SensorSpec: cat["sensor"], GatewaySpec: cat["gateway"],
		FogSpec: cat["fog"], CloudSpec: cat["cloud"],
	}
}

// ThreeTier is a built three-tier continuum with the tier handles the
// experiments need.
type ThreeTier struct {
	*Continuum
	Sensors  [][]*node.Node // grouped by gateway
	Gateways []*node.Node
	Fog      *node.Node
	Cloud    *node.Node
}

// BuildThreeTier assembles the canonical continuum: per-gateway sensor
// stars, a metro fog node co-located with the metro core, and a cloud
// across the WAN.
func BuildThreeTier(p ThreeTierParams) *ThreeTier {
	c := New()
	tt := &ThreeTier{Continuum: c}

	fogSpec := p.FogSpec
	fogSpec.Name = "fog"
	tt.Fog = c.AddNode(fogSpec)

	cloudSpec := p.CloudSpec
	cloudSpec.Name = "cloud"
	tt.Cloud = c.AddNode(cloudSpec)
	c.Connect(tt.Fog.ID, tt.Cloud.ID, p.WANLatency, p.WANCapacity)

	for g := 0; g < p.Gateways; g++ {
		gwSpec := p.GatewaySpec
		gwSpec.Name = fmt.Sprintf("gateway%d", g)
		gw := c.AddNode(gwSpec)
		c.Connect(gw.ID, tt.Fog.ID, p.MetroLatency, p.MetroCapacity)
		tt.Gateways = append(tt.Gateways, gw)

		var group []*node.Node
		for s := 0; s < p.SensorsPerGateway; s++ {
			sSpec := p.SensorSpec
			sSpec.Name = fmt.Sprintf("sensor%d.%d", g, s)
			sn := c.AddNode(sSpec)
			c.Connect(sn.ID, gw.ID, p.SensorLatency, p.SensorCapacity)
			group = append(group, sn)
		}
		tt.Sensors = append(tt.Sensors, group)
	}
	return tt
}

// ComputeNodes returns the nodes a placement policy should consider for
// offloaded work in a three-tier deployment: gateways, fog, and cloud
// (sensors only produce data; their 100 MFLOPS cores are modeled but
// excluded as offload targets).
func (tt *ThreeTier) ComputeNodes() []*node.Node {
	out := []*node.Node{tt.Fog, tt.Cloud}
	out = append(out, tt.Gateways...)
	return out
}
