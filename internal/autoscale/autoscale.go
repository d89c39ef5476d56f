// Package autoscale adds serverless-style elasticity to the simulated
// continuum: a Pool grows and shrinks a fleet of identical nodes behind a
// hub vertex, paying a provisioning delay for cold capacity and draining
// idle nodes after a grace period. It answers the cost/latency question
// bursty workloads pose — over-provision, under-provision, or scale — and
// powers the F8 experiment.
//
// The pool is event-driven: scaling decisions happen on submit and on
// completion, never on a free-running timer, so the simulation always
// terminates.
package autoscale

import (
	"fmt"

	"continuum/internal/core"
	"continuum/internal/node"
	"continuum/internal/sim"
	"continuum/internal/trace"
)

// Config parameterizes a pool.
type Config struct {
	// Min and Max bound the active fleet size.
	Min, Max int
	// Template is the spec every pool node instantiates (Name gets a
	// suffix).
	Template node.Spec
	// LinkLatency/LinkCapacity connect each node to the hub.
	LinkLatency, LinkCapacity float64
	// ProvisionDelay is the virtual time to bring up a cold node.
	ProvisionDelay float64
	// DrainAfter is how long a node must sit idle before deactivating.
	DrainAfter float64
	// QueuePerNode is the scale-up trigger: provision when total queued
	// tasks exceed QueuePerNode × active nodes.
	QueuePerNode int
}

// Validate reports the first problem.
func (c Config) Validate() error {
	switch {
	case c.Min < 1:
		return fmt.Errorf("autoscale: Min %d < 1", c.Min)
	case c.Max < c.Min:
		return fmt.Errorf("autoscale: Max %d < Min %d", c.Max, c.Min)
	case c.ProvisionDelay < 0 || c.DrainAfter <= 0:
		return fmt.Errorf("autoscale: delays must be positive")
	case c.QueuePerNode < 1:
		return fmt.Errorf("autoscale: QueuePerNode %d < 1", c.QueuePerNode)
	}
	return c.Template.Validate()
}

type member struct {
	n          *node.Node
	active     bool
	lastBusy   float64
	drainTimer sim.Timer
	// activeSince tracks the current activation for node-seconds billing.
	activeSince float64
	nodeSeconds float64
}

// Pool is an elastic fleet on a continuum.
type Pool struct {
	cont *core.Continuum
	hub  int
	cfg  Config

	members      []*member
	provisioning int

	// ScaleUps/ScaleDowns count transitions; ColdProvisions counts
	// brand-new nodes (vs reactivated warm ones).
	ScaleUps, ScaleDowns, ColdProvisions int64
	// Outstanding tracks submitted-but-incomplete tasks.
	Outstanding int64
}

// NewPool creates a pool attached to hub with Min nodes pre-provisioned
// (warm and active).
func NewPool(c *core.Continuum, hub int, cfg Config) *Pool {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Pool{cont: c, hub: hub, cfg: cfg}
	for i := 0; i < cfg.Min; i++ {
		p.addNode(true)
	}
	return p
}

// addNode instantiates a fresh node on the topology.
func (p *Pool) addNode(activate bool) *member {
	spec := p.cfg.Template
	spec.Name = fmt.Sprintf("%s-%d", spec.Name, len(p.members))
	n := p.cont.AddNode(spec)
	p.cont.Connect(n.ID, p.hub, p.cfg.LinkLatency, p.cfg.LinkCapacity)
	m := &member{n: n, active: activate, activeSince: p.cont.K.Now()}
	p.members = append(p.members, m)
	return m
}

// Active returns the number of active nodes.
func (p *Pool) Active() int {
	c := 0
	for _, m := range p.members {
		if m.active {
			c++
		}
	}
	return c
}

// NodeSeconds returns accumulated active node-time (the cost proxy).
func (p *Pool) NodeSeconds() float64 {
	now := p.cont.K.Now()
	total := 0.0
	for _, m := range p.members {
		total += m.nodeSeconds
		if m.active {
			total += now - m.activeSince
		}
	}
	return total
}

func (p *Pool) queuedTotal() int {
	q := 0
	for _, m := range p.members {
		if m.active {
			q += m.n.Cores.QueueLen()
		}
	}
	return q
}

// leastLoaded returns the active node with the smallest backlog.
func (p *Pool) leastLoaded() *member {
	var best *member
	bestScore := 0.0
	for _, m := range p.members {
		if !m.active {
			continue
		}
		score := float64(m.n.Cores.InUse()+int64(m.n.Cores.QueueLen())) / float64(m.n.Spec.Cores)
		if best == nil || score < bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// Submit places one task on the least-loaded active node and triggers a
// scaling decision. done may be nil.
func (p *Pool) Submit(scalarWork, tensorWork float64, kind node.AccelKind, done func()) {
	m := p.leastLoaded()
	if m == nil {
		panic("autoscale: no active nodes (Min >= 1 should prevent this)")
	}
	p.Outstanding++
	m.drainTimer.Cancel()
	start := p.cont.K.Now()
	m.lastBusy = start
	m.n.Execute(scalarWork, tensorWork, kind, func() {
		p.Outstanding--
		m.lastBusy = p.cont.K.Now()
		p.cont.Tracer.Record(start, m.lastBusy, trace.KindTask, m.n.Name, "", 0)
		p.maybeScaleDown(m)
		if done != nil {
			done()
		}
	})
	p.maybeScaleUp()
}

// maybeScaleUp provisions capacity when the backlog per active node
// exceeds the trigger. Warm (deactivated) nodes reactivate instantly;
// otherwise a cold node arrives after ProvisionDelay.
func (p *Pool) maybeScaleUp() {
	active := p.Active()
	if active+p.provisioning >= p.cfg.Max {
		return
	}
	if p.queuedTotal() <= p.cfg.QueuePerNode*active {
		return
	}
	// Prefer a warm node.
	for _, m := range p.members {
		if !m.active {
			m.active = true
			m.activeSince = p.cont.K.Now()
			m.lastBusy = p.cont.K.Now()
			p.ScaleUps++
			now := p.cont.K.Now()
			p.cont.Tracer.Record(now, now, trace.KindScaleUp, m.n.Name, "warm", 0)
			p.armDrain(m) // deactivate again if the burst never reaches it
			return
		}
	}
	// Cold provision.
	p.provisioning++
	p.ColdProvisions++
	p.cont.K.After(p.cfg.ProvisionDelay, func() {
		p.provisioning--
		m := p.addNode(true)
		p.ScaleUps++
		now := p.cont.K.Now()
		p.cont.Tracer.Record(now, now, trace.KindScaleUp, m.n.Name, "cold", 0)
		p.armDrain(m) // a late arrival may find the burst already gone
	})
}

// armDrain starts m's idle countdown if none is pending.
func (p *Pool) armDrain(m *member) {
	if !m.active || m.drainTimer.Pending() {
		return
	}
	m.drainTimer = p.cont.K.After(p.cfg.DrainAfter, func() {
		if !m.active || p.Active() <= p.cfg.Min {
			return
		}
		if m.n.Cores.InUse() > 0 || m.n.Cores.QueueLen() > 0 {
			return
		}
		m.active = false
		now := p.cont.K.Now()
		m.nodeSeconds += now - m.activeSince
		p.ScaleDowns++
		p.cont.Tracer.Record(now, now, trace.KindScaleDown, m.n.Name, "", 0)
	})
}

// maybeScaleDown arms a drain timer on a node that just went idle; if it
// stays idle for DrainAfter and the fleet is above Min, it deactivates
// (stays warm for instant reactivation).
func (p *Pool) maybeScaleDown(m *member) {
	if m.n.Cores.InUse() > 0 || m.n.Cores.QueueLen() > 0 {
		return
	}
	p.armDrain(m)
}
