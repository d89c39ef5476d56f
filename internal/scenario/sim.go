package scenario

import (
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/core"
	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/task"
	"continuum/internal/trace"
	"continuum/internal/workload"
)

// This file is the simulator backend: the compiled event timeline is
// injected into the discrete-event engine as kernel-scheduled fault
// flips, per-attempt Disturb draws, link retunes, and a piecewise
// arrival schedule. The live backend (live.go) replays the identical
// timeline against real endpoints; keeping both behind the same compile
// step is what makes one scenario file mean one experiment.

// Run compiles the scenario and executes it on the simulator backend.
// It records no trace; the report is the one RunTraced returns.
func (s *Scenario) Run() (*Report, error) {
	p, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return p.run(nil, 1)
}

// RunTraced is Run plus the event trace of the execution, for timeline
// rendering (continuum-sim scenario run -gantt).
func (s *Scenario) RunTraced() (*Report, *trace.Tracer, error) {
	return s.RunTracedParallel(1)
}

// RunTracedParallel is RunTraced with up to workers goroutines
// synthesizing the per-origin arrival streams. The event loop itself
// stays serial — placement and max-min fair bandwidth sharing are
// globally coupled, so the engine's determinism comes from one kernel —
// but workload synthesis is embarrassingly parallel per origin: the
// per-origin RNGs are split off serially (fixing the stream identities),
// the origins' job lists are generated concurrently, and the lists are
// concatenated in origin order. The result is bit-identical to workers=1
// for any worker count.
func (s *Scenario) RunTracedParallel(workers int) (*Report, *trace.Tracer, error) {
	p, err := s.Compile()
	if err != nil {
		return nil, nil, err
	}
	return p.runTraced(workers)
}

// RunTraced executes the plan on the simulator backend and returns the
// report with the event trace of the execution.
func (p *Plan) RunTraced() (*Report, *trace.Tracer, error) {
	return p.runTraced(1)
}

func (p *Plan) runTraced(workers int) (*Report, *trace.Tracer, error) {
	tr := trace.New(1 << 20)
	r, err := p.run(tr, workers)
	return r, tr, err
}

// streams splits a run's random streams off a copy of the plan's seed
// stream, in the one order every run takes them after the event
// compile's split (made in Compile): the engine's event draws, then the
// workload's — the placement policy's and one arrival stream per origin
// in declaration order, or a DAG's shape's and its scheduler's. Both
// backends call it, so an origin submits at the same times on either.
func (p *Plan) streams() (events *workload.RNG, work []*workload.RNG) {
	rng := p.rng
	events = rng.Split()
	work = make([]*workload.RNG, 2) // a DAG's shape and its scheduler
	if st := p.Scenario.Stream; st != nil {
		work = make([]*workload.RNG, 1+len(st.Origins)) // the policy, each origin
	}
	for i := range work {
		work[i] = rng.Split()
	}
	return events, work
}

// arrivals calls submit with each submission time, in scenario seconds,
// of the origin whose arrival stream is rng, up to the stream horizon.
func (p *Plan) arrivals(rng *workload.RNG, submit func(at float64)) {
	arr := workload.NewPiecewise(rng, p.Scenario.Stream.RatePerOrigin, p.phases)
	for t := arr.Next(); t <= p.Scenario.Stream.Horizon; t += arr.Next() {
		submit(t)
	}
}

// chaosStream is what one chaos-on op draws from: its request stream,
// and its up/down phases when its spec cycles (nil otherwise).
type chaosStream struct {
	draws  *workload.RNG
	phases *fault.Phases
}

// chaosStreams splits each chaos-on op's streams off a run's event
// stream in timeline order, its request stream and then, when its spec
// cycles, its phases' (bounded by chaosStop), indexed like p.ops. Both
// backends take them from here, so a node's chaos draws alike on either.
func (p *Plan) chaosStreams(events *workload.RNG) []chaosStream {
	streams := make([]chaosStream, len(p.ops))
	for i, o := range p.ops {
		if o.kind != opChaosOn {
			continue
		}
		streams[i].draws = events.Split()
		if o.chaos.MeanUp > 0 {
			streams[i].phases = fault.NewPhases(o.chaos.Spec, o.at, p.chaosStop(o), events.Split())
		}
	}
	return streams
}

// run is the simulator backend with tr (nil for none) as the engine's
// tracer.
func (p *Plan) run(tr *trace.Tracer, workers int) (*Report, error) {
	s := p.Scenario
	c := core.New()
	// The continuum is thrown away when the run ends: its route searches'
	// storage goes to the store the next run's searches take from.
	defer c.Net.DropRoutes()
	c.Tracer = tr
	// The nodes are the network's first vertices, so node i's ID is i.
	nodes := make([]*node.Node, len(s.Nodes))
	for i, nj := range s.Nodes {
		spec, err := nj.spec()
		if err != nil {
			return nil, err // unreachable after Compile
		}
		nodes[i] = c.AddNode(spec)
	}
	links := make([][2]*netsim.Link, len(s.Links))
	for i, lj := range s.Links {
		ab, ba := c.Connect(p.index[lj.A], p.index[lj.B], lj.Latency, lj.Capacity)
		links[i] = [2]*netsim.Link{ab, ba}
	}

	opts := core.Options{MaxRetries: s.retries()}
	if s.Stream != nil {
		opts.Admission = s.Stream.Admission
	}
	events, work := p.streams()
	p.installEvents(c, nodes, links, events, &opts)

	if s.Stream != nil {
		return p.runStream(c, work, opts, workers), nil
	}
	return p.runDAG(c, work, opts)
}

// installEvents wires the compiled timeline into the kernel and the
// engine options: scripted fail/repair flips on fault targets, chaos
// (injectors asked per attempt by the Disturb hook, up/down phases
// flipping fault targets through fault.Cycle), link retunes, cordon
// holds (via the Cordoned hook), and origin silencing while an origin is
// down or drained. Workload ops are not scheduled here — they become the
// arrival processes' phase schedule. Slices are indexed by node ID.
func (p *Plan) installEvents(c *core.Continuum, nodes []*node.Node,
	links [][2]*netsim.Link, events *workload.RNG, opts *core.Options) {
	s := p.Scenario
	if len(p.ops) == 0 {
		return
	}
	targets := make([]*fault.Target, len(nodes))
	target := func(i int) *fault.Target {
		if targets[i] == nil {
			targets[i] = fault.NewTarget(nodes[i].Name)
			if opts.Faults == nil {
				opts.Faults = make(map[int]*fault.Target)
			}
			opts.Faults[i] = targets[i]
		}
		return targets[i]
	}
	// Cordon and chaos state: mutated only inside kernel callbacks and
	// read only by engine hooks, which also run on the (single-threaded)
	// kernel.
	cordoned := make([]bool, len(nodes))
	drained := make([]bool, len(nodes))
	chaos := make([]*fault.Chaos, len(nodes)) // the open chaos window's injector
	cycling := make([]bool, len(nodes))       // its phases flip the node's target
	hasCordon, hasChaos := false, false
	streams := p.chaosStreams(events)
	for i, o := range p.ops {
		n := o.node
		name := s.Nodes[n].Name
		switch o.kind {
		case opFail:
			t := target(n)
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindFailure, name, "scripted fail", 0)
				t.Fail()
			})
		case opRepair:
			t := target(n)
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindRepair, name, "scripted repair", 0)
				t.Repair()
			})
		case opChaosOn:
			hasChaos = true
			// The kernel walks the phases (fault.Cycle), so the injector
			// itself has none: a down node takes no attempts.
			inj := fault.NewChaosOn(o.chaos, streams[i].draws, nil, time.Time{}, 1)
			ph := streams[i].phases
			c.K.At(o.at, func() { chaos[n], cycling[n] = inj, ph != nil })
			if ph != nil {
				fault.Cycle(c.K, target(n), ph)
			}
		case opChaosOff:
			t := target(n)
			c.K.At(o.at, func() {
				// A cycling phase machine may have left the node down with
				// its repair beyond the stop bound; chaos-off heals it.
				if cycling[n] {
					t.Repair()
				}
				chaos[n], cycling[n] = nil, false
			})
		case opLink:
			pair, l := links[o.link], s.Links[o.link]
			c.K.At(o.at, func() {
				for _, half := range pair {
					c.Net.SetLinkParams(half, l.Latency*o.factor, l.Capacity/o.factor)
				}
			})
		case opCordon:
			hasCordon = true
			c.K.At(o.at, func() {
				detail := "cordon"
				if o.drain {
					detail = "drain"
				}
				c.Tracer.Record(o.at, o.at, trace.KindCordon, name, detail, 0)
				cordoned[n] = true
				if o.drain {
					drained[n] = true
				}
			})
		case opUncordon:
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindUncordon, name, "scripted uncordon", 0)
				cordoned[n] = false
				drained[n] = false
			})
		case opLeave:
			// The sim has no registry to deregister from: a graceful leave
			// is the node's fault target failing (attempts divert elsewhere)
			// with its own generator silenced.
			t := target(n)
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindFailure, name, "scripted leave", 0)
				t.Fail()
				drained[n] = true
			})
		case opJoin:
			t := target(n)
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindRepair, name, "scripted join", 0)
				t.Repair()
				drained[n] = false
			})
		case opWorkload:
			// Compiled into the arrival processes' phase schedule instead.
		}
	}
	if hasCordon {
		opts.Cordoned = func(n *node.Node) bool { return cordoned[n.ID] }
	}
	if hasChaos {
		opts.Disturb = func(n *node.Node) (bool, float64) {
			inj := chaos[n.ID]
			if inj == nil {
				return false, 0
			}
			// The sim has no response channel to answer an injected error
			// on: a drop and an error both lose the attempt, and both are
			// retryable failures to the engine.
			act, delay := inj.Draw(c.K.Now())
			return act != fault.ChaosNone, delay
		}
	}
	if s.Stream != nil && (opts.Faults != nil || hasCordon) {
		faults := opts.Faults
		opts.DropSubmit = func(origin int) bool {
			if drained[origin] {
				return true
			}
			t, ok := faults[origin]
			return ok && !t.Up()
		}
	}
}

// chaosStop returns when a cycling chaos op's phase machine must stop
// scheduling: the node's next chaos-off if scripted, else the stream
// horizon (DAG scenarios are validated to always have a bound — an
// unbounded cycle would keep the kernel's queue nonempty forever).
func (p *Plan) chaosStop(on op) float64 {
	for _, o := range p.ops {
		if o.kind == opChaosOff && o.node == on.node && o.at >= on.at {
			return o.at
		}
	}
	if st := p.Scenario.Stream; st != nil && st.Horizon > on.at {
		return st.Horizon
	}
	return on.at
}

func (p *Plan) runStream(c *core.Continuum, work []*workload.RNG, opts core.Options, workers int) *Report {
	s := p.Scenario
	// Every job runs the same task, so they share one.
	tk := &task.Task{
		Name:        "job",
		ScalarWork:  s.Stream.ScalarWork,
		TensorWork:  s.Stream.TensorWork,
		Accel:       p.accel,
		OutputBytes: s.Stream.OutputBytes,
		Inputs:      []task.DataRef{{Name: "in", Bytes: s.Stream.InputBytes}},
	}
	// Per-origin arrival synthesis. Each origin's stream was split off
	// serially by streams, so its arrivals are a fixed function of (seed,
	// origin index) and the generation below can run on any number of
	// goroutines without changing a single arrival. A first pass counts
	// each origin's arrivals on a copy of its stream, so the second
	// writes every origin's jobs straight into its own span of jobs.
	origins, rngs := s.Stream.Origins, work[1:]
	start := make([]int, len(origins)+1)
	for i := range origins {
		counter := *rngs[i]
		n := 0
		p.arrivals(&counter, func(float64) { n++ })
		start[i+1] = start[i] + n
	}
	jobs := make([]core.StreamJob, start[len(origins)])
	gen := func(i int) {
		job := core.StreamJob{
			Task:     tk,
			Origin:   p.index[origins[i]],
			Priority: faas.Priority(s.Stream.Priorities[origins[i]]),
		}
		out := jobs[start[i]:start[i]:start[i+1]]
		p.arrivals(rngs[i], func(t float64) {
			job.Submit = t
			out = append(out, job)
		})
	}
	if workers <= 1 || len(origins) == 1 {
		for i := range origins {
			gen(i)
		}
	} else {
		var cursor int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers && w < len(origins); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&cursor, 1))
					if i >= len(origins) {
						return
					}
					gen(i)
				}
			}()
		}
		wg.Wait()
	}
	st := c.RunStream(p.policy(work[0]), jobs, nil, opts)
	return reportFromStats(s.Name, "stream/"+s.Stream.Policy, st)
}

func (p *Plan) runDAG(c *core.Continuum, work []*workload.RNG, opts core.Options) (*Report, error) {
	s := p.Scenario
	d := p.dag(work[0])
	env := c.Env()
	st, err := c.RunDAG(d, p.schedule(env, d, work[1]), env, opts)
	if err != nil {
		return nil, err
	}
	return reportFromStats(s.Name, "dag/"+s.DAG.Generator+"/"+s.DAG.Scheduler, st), nil
}

func reportFromStats(name, workloadDesc string, st *core.Stats) *Report {
	return &Report{
		Scenario:   name,
		Backend:    "sim",
		Workload:   workloadDesc,
		Completed:  st.Completed,
		Lost:       st.Lost,
		Retries:    st.Retries,
		Suppressed: st.Suppressed,
		Shed:       st.Shed,
		Makespan:   st.Makespan,
		MeanLat:    st.Latency.Mean(),
		P99Lat:     st.Latency.P99(),
		Joules:     st.Joules,
		Dollars:    st.Dollars,
		EgressB:    st.EgressB,
		PerNode:    st.PerNode,
	}
}
