package scenario

import (
	"sync"
	"sync/atomic"

	"continuum/internal/core"
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

// run is the simulator backend with tr (nil for none) as the engine's
// tracer.
func (p *Plan) run(tr *trace.Tracer, workers int) (*Report, error) {
	s := p.Scenario
	c := core.New()
	c.Tracer = tr
	byName := make(map[string]*node.Node)
	for _, nj := range s.Nodes {
		spec, err := nj.spec()
		if err != nil {
			return nil, err // unreachable after Compile
		}
		byName[nj.Name] = c.AddNode(spec)
	}
	links := make(map[LinkJSON][2]*netsim.Link)
	for _, lj := range s.Links {
		ab, ba := c.Connect(byName[lj.A].ID, byName[lj.B].ID, lj.Latency, lj.Capacity)
		links[lj] = [2]*netsim.Link{ab, ba}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}

	opts := core.ReliableOptions{MaxRetries: s.retries()}
	horizon := 0.0
	if s.Stream != nil {
		horizon = s.Stream.Horizon
		if s.Stream.Admission > 0 {
			opts.Admission = core.AdmissionOptions{MaxOutstanding: s.Stream.Admission}
		}
	}
	events, work := p.streams()
	s.installEvents(c, byName, links, p.ops, events, horizon, &opts)

	if s.Stream != nil {
		return p.runStream(c, byName, work, opts, workers)
	}
	return p.runDAG(c, work, opts)
}

// simChaos is one node's active per-request injection state on the sim
// backend. Drop and err draws both mean "attempt lost" — the simulator
// has no response channel to answer an injected error on, and both are
// retryable failures to the engine — while delay draws defer the
// attempt's entry into the pipeline, mirroring the live server sleeping
// before dispatch.
type simChaos struct {
	active  bool
	cycling bool // an up/down phase machine currently drives the fault target
	spec    fault.ChaosSpec
	rng     *workload.RNG
}

// installEvents wires the compiled timeline into the kernel and the
// engine options: scripted fail/repair flips on fault targets, chaos
// state machines (per-request draws via the Disturb hook, up/down
// cycling via scheduled exponential flips), link retunes, cordon holds
// (via the Cordoned hook), and origin silencing while an origin is down
// or drained. Workload ops are not scheduled here — they become the
// arrival processes' phase schedule.
func (s *Scenario) installEvents(c *core.Continuum, byName map[string]*node.Node,
	links map[LinkJSON][2]*netsim.Link, ops []op, rng *workload.RNG,
	horizon float64, opts *core.ReliableOptions) {
	if len(ops) == 0 {
		return
	}
	targets := make(map[string]*fault.Target)
	target := func(name string) *fault.Target {
		t, ok := targets[name]
		if !ok {
			t = fault.NewTarget(name)
			targets[name] = t
			if opts.Faults == nil {
				opts.Faults = make(map[int]*fault.Target)
			}
			opts.Faults[byName[name].ID] = t
		}
		return t
	}
	// Cordon state: mutated only inside kernel callbacks and read only by
	// engine hooks, which also run on the (single-threaded) kernel.
	cordoned := make(map[int]bool)
	drained := make(map[int]bool)
	hasCordon := false
	for _, o := range ops {
		if o.kind == opCordon {
			hasCordon = true
			break
		}
	}
	chaos := make(map[int]*simChaos)
	chaosFor := func(name string) *simChaos {
		id := byName[name].ID
		sc, ok := chaos[id]
		if !ok {
			sc = &simChaos{}
			chaos[id] = sc
		}
		return sc
	}
	for _, o := range ops {
		o := o
		switch o.kind {
		case opFail:
			t := target(o.node)
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindFailure, o.node, "scripted fail", 0)
				t.Fail()
			})
		case opRepair:
			t := target(o.node)
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindRepair, o.node, "scripted repair", 0)
				t.Repair()
			})
		case opChaosOn:
			sc := chaosFor(o.node)
			srng := rng.Split()
			cycling := o.chaos.MeanUp > 0
			c.K.At(o.at, func() {
				sc.active, sc.cycling, sc.spec, sc.rng = true, cycling, o.chaos, srng
			})
			if cycling {
				stop := chaosStop(ops, o, horizon)
				fault.Cycle(c.K, target(o.node), o.chaos.Spec, o.at, stop, rng.Split())
			}
		case opChaosOff:
			sc := chaosFor(o.node)
			t := target(o.node)
			c.K.At(o.at, func() {
				// A cycling phase machine may have left the node down with
				// its repair beyond the stop bound; chaos-off heals it.
				if sc.cycling {
					t.Repair()
				}
				sc.active, sc.cycling = false, false
			})
		case opLink:
			pair := links[o.link]
			c.K.At(o.at, func() {
				for _, l := range pair {
					c.Net.SetLinkParams(l, o.link.Latency*o.factor, o.link.Capacity/o.factor)
				}
			})
		case opCordon:
			id, drain := byName[o.node].ID, o.drain
			c.K.At(o.at, func() {
				detail := "cordon"
				if drain {
					detail = "drain"
				}
				c.Tracer.Record(o.at, o.at, trace.KindCordon, o.node, detail, 0)
				cordoned[id] = true
				if drain {
					drained[id] = true
				}
			})
		case opUncordon:
			id := byName[o.node].ID
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindUncordon, o.node, "scripted uncordon", 0)
				cordoned[id] = false
				drained[id] = false
			})
		case opLeave:
			// The sim has no registry to deregister from: a graceful leave
			// is the node's fault target failing (attempts divert elsewhere)
			// with its own generator silenced.
			t, id := target(o.node), byName[o.node].ID
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindFailure, o.node, "scripted leave", 0)
				t.Fail()
				drained[id] = true
			})
		case opJoin:
			t, id := target(o.node), byName[o.node].ID
			c.K.At(o.at, func() {
				c.Tracer.Record(o.at, o.at, trace.KindRepair, o.node, "scripted join", 0)
				t.Repair()
				drained[id] = false
			})
		case opWorkload:
			// Compiled into the arrival processes' phase schedule instead.
		}
	}
	if hasCordon {
		opts.Cordoned = func(n *node.Node) bool { return cordoned[n.ID] }
	}
	if len(chaos) > 0 {
		opts.Disturb = func(n *node.Node) (bool, float64) {
			sc, ok := chaos[n.ID]
			if !ok || !sc.active {
				return false, 0
			}
			var delay float64
			if p := sc.spec.DelayProb; p > 0 && sc.spec.DelayMean > 0 && sc.rng.Float64() < p {
				delay = sc.rng.Exp(1 / sc.spec.DelayMean.Seconds())
			}
			drop := false
			if p := sc.spec.DropProb + sc.spec.ErrProb; p > 0 && sc.rng.Float64() < p {
				drop = true
			}
			return drop, delay
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
func chaosStop(ops []op, on op, horizon float64) float64 {
	for _, o := range ops {
		if o.kind == opChaosOff && o.node == on.node && o.at >= on.at {
			return o.at
		}
	}
	if horizon > on.at {
		return horizon
	}
	return on.at
}

func (p *Plan) runStream(c *core.Continuum, byName map[string]*node.Node, work []*workload.RNG, opts core.ReliableOptions, workers int) (*Report, error) {
	s := p.Scenario
	pol, err := parsePolicy(s.Stream.Policy, work[0])
	if err != nil {
		return nil, err
	}
	// Per-origin arrival synthesis. Each origin's stream was split off
	// serially by streams, so its arrivals are a fixed function of (seed,
	// origin index) and the generation below can run on any number of
	// goroutines without changing a single arrival.
	origins, rngs := s.Stream.Origins, work[1:]
	perOrigin := make([][]core.StreamJob, len(origins))
	gen := func(i int) {
		var out []core.StreamJob
		p.arrivals(rngs[i], func(t float64) {
			out = append(out, core.StreamJob{
				Task: &task.Task{
					Name:        "job",
					ScalarWork:  s.Stream.ScalarWork,
					TensorWork:  s.Stream.TensorWork,
					Accel:       p.accel,
					OutputBytes: s.Stream.OutputBytes,
					Inputs:      []task.DataRef{{Name: "in", Bytes: s.Stream.InputBytes}},
				},
				Origin:   byName[origins[i]].ID,
				Submit:   t,
				Priority: s.Stream.Priorities[origins[i]],
			})
		})
		perOrigin[i] = out
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
	total := 0
	for _, o := range perOrigin {
		total += len(o)
	}
	jobs := make([]core.StreamJob, 0, total)
	for _, o := range perOrigin {
		jobs = append(jobs, o...)
	}
	st := c.RunStreamReliable(pol, jobs, nil, opts)
	return reportFromStats(s.Name, "stream/"+s.Stream.Policy, st), nil
}

func (p *Plan) runDAG(c *core.Continuum, work []*workload.RNG, opts core.ReliableOptions) (*Report, error) {
	s := p.Scenario
	gen, err := dagGen(s.DAG)
	if err != nil {
		return nil, err
	}
	d := gen(work[0])
	schedule, err := parseScheduler(s.DAG.Scheduler)
	if err != nil {
		return nil, err
	}
	env := c.Env()
	st, err := c.RunDAGReliable(d, schedule(env, d, work[1]), env, opts)
	if err != nil {
		return nil, err
	}
	return reportFromStats(s.Name, "dag/"+s.DAG.Generator+"/"+s.DAG.Scheduler, st), nil
}

func reportFromStats(name, workloadDesc string, st *core.ReliableStats) *Report {
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
