package core

import (
	"fmt"
	"math"

	"continuum/internal/data"
	"continuum/internal/fault"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/sim"
	"continuum/internal/task"
	"continuum/internal/trace"
)

// engine is the single execution loop behind all four public runners
// (RunStream, RunStreamReliable, RunDAG, RunDAGReliable). Every unit of
// work — an online stream job or one DAG task — flows through the same
// pipeline:
//
//	stage inputs → epoch-check → execute → epoch-check →
//	    account cost/egress → deliver outputs → feedback/trace
//
// Fault-awareness is not a separate runner: it is the ReliableOptions
// hook. With the zero value (no Faults) every epoch-check is a no-op, no
// retry can ever fire, and no backup replica is ever launched, so a
// reliable run without faults is the same computation as a base run —
// the equivalence property engine_test.go asserts. Deadlines
// (TaskDeadline) and speculation/preemption (Speculate) are likewise
// hooks on this shared pipeline, so all four entry points inherit them
// at once.
type engine struct {
	c    *Continuum
	st   *ReliableStats
	opts ReliableOptions
	// fb receives measured latencies when the policy implements
	// placement.FeedbackPolicy (stream runs only).
	fb placement.FeedbackPolicy

	// faults is opts.Faults indexed by node ID (nil: always up), so the
	// eligibility and epoch checks are slice reads. It is nil without
	// faults.
	faults []*fault.Target
}

// defaultRetryBackoff paces re-dispatch when ReliableOptions leaves
// RetryBackoff unset.
const defaultRetryBackoff = 0.1

func newEngine(c *Continuum, opts ReliableOptions) *engine {
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = defaultRetryBackoff
	}
	e := &engine{c: c, st: &ReliableStats{Stats: newStats()}, opts: opts}
	for id, t := range opts.Faults { //det: fills a slice by key
		if id >= len(e.faults) {
			e.faults = append(e.faults, make([]*fault.Target, id+1-len(e.faults))...)
		}
		e.faults[id] = t
	}
	return e
}

// target returns n's failure target, nil for a node that never fails.
func (e *engine) target(n *node.Node) *fault.Target {
	if n.ID < len(e.faults) {
		return e.faults[n.ID]
	}
	return nil
}

// epoch returns n's failure epoch (0 for a node that never fails).
func (e *engine) epoch(n *node.Node) uint64 {
	if t := e.target(n); t != nil {
		return t.Epoch()
	}
	return 0
}

// eligible reports whether n may receive new work right now: up and not
// cordoned.
func (e *engine) eligible(n *node.Node) bool {
	if t := e.target(n); t != nil && !t.Up() {
		return false
	}
	return e.opts.Cordoned == nil || !e.opts.Cordoned(n)
}

// unit is one attempt at executing a task on a chosen node.
type unit struct {
	task *task.Task
	node *node.Node

	// attempt numbers this try: 0 for the first dispatch, incremented on
	// every retry. It rides on every trace event the unit emits so
	// exported timelines attribute spans to the retry that produced them.
	attempt int

	// origin, when >= 0, is the vertex inputs are shipped from when no
	// fabric serves them (stream semantics). DAG tasks pass -1: their
	// inputs arrive via fabric staging or predecessor edge transfers.
	origin int

	// deliver runs after successful execution and cost accounting, at
	// the end of execution: stream jobs send the reply message, DAG
	// tasks count completion and launch successor edge transfers.
	deliver func()

	// lost runs instead of deliver when the host's failure epoch
	// advanced mid-attempt (inputs or results on a failed node).
	lost func()
}

// run admits one attempt into the pipeline, consulting the Disturb hook
// first: a drawn delay re-enters late via the kernel, a drawn drop is
// routed to u.lost exactly like an epoch failure. With a nil hook this
// is a direct call to dispatch.
func (e *engine) run(u unit) {
	if e.opts.Disturb != nil {
		drop, delay := e.opts.Disturb(u.node)
		if delay > 0 {
			e.c.K.After(delay, func() { e.afterDisturb(u, drop) })
			return
		}
		if drop {
			e.afterDisturb(u, true)
			return
		}
	}
	e.dispatch(u)
}

// afterDisturb resumes a disturbed attempt once its injected delay (if
// any) has elapsed: a dropped attempt is lost like an epoch failure, a
// merely delayed one enters the pipeline late.
func (e *engine) afterDisturb(u unit, drop bool) {
	if drop {
		e.st.ChaosDrops++
		e.traceFailure(u, "chaos", unstarted)
		u.lost()
		return
	}
	e.dispatch(u)
}

// dispatch drives one attempt through the pipeline. Epoch checks bracket
// the execution: the epoch is sampled at dispatch, re-checked after
// input staging and after execution, and any advance routes to u.lost
// with a Failure trace record. TaskDeadline is checked at the same two
// points against virtual time elapsed since dispatch; an overrun attempt
// is treated exactly like a lost one. With zero-value options every
// check is a no-op.
//
// Trace spans, each recorded once it closes and carrying the attempt
// number: a dispatch instant marks the attempt entering the pipeline, a
// stage span covers input staging when data actually moves, and a task
// span covers execution — ending at the loss, with Err saying why, when
// the attempt is lost or over its deadline. Every record is nil-safe, so
// a continuum without a tracer pays only the dead branch inside
// Tracer.Record (and traceFailure's own check).
func (e *engine) dispatch(u unit) {
	epoch0 := e.epoch(u.node)
	start := e.c.K.Now()
	e.c.Tracer.Record(start, start, trace.KindDispatch, u.node.Name, u.task.Name, u.attempt)
	e.stage(u, func() {
		if e.epoch(u.node) != epoch0 {
			e.traceFailure(u, "inputs lost", unstarted)
			u.lost()
			return
		}
		if e.missedDeadline(u, start, unstarted) {
			return // staging alone blew the attempt's budget
		}
		// Only a traced attempt's callback holds its execution start: the
		// untraced one stays the size BenchmarkEngineOverhead measures.
		if e.c.Tracer == nil {
			u.node.Execute(u.task.ScalarWork, u.task.TensorWork, u.task.Accel, func() {
				e.executed(u, epoch0, start, unstarted)
			})
			return
		}
		execStart := e.c.K.Now()
		u.node.Execute(u.task.ScalarWork, u.task.TensorWork, u.task.Accel, func() {
			e.executed(u, epoch0, start, execStart)
		})
	})
}

// executed ends an attempt whose execution, begun at execStart (unstarted
// when untraced), just finished: lost if its node failed meanwhile, lost
// if it overran its deadline, else billed and delivered.
func (e *engine) executed(u unit, epoch0 uint64, start, execStart float64) {
	if e.epoch(u.node) != epoch0 {
		e.traceFailure(u, "lost", execStart)
		u.lost()
		return
	}
	if e.missedDeadline(u, start, execStart) {
		return
	}
	e.c.Tracer.Record(execStart, e.c.K.Now(), trace.KindTask, u.node.Name, u.task.Name, u.attempt)
	execTime := u.node.ExecTime(u.task.ScalarWork, u.task.TensorWork, u.task.Accel)
	e.st.Dollars += u.node.DollarCost(execTime)
	u.deliver()
}

// missedDeadline enforces the per-attempt deadline: when virtual time
// since dispatch exceeds TaskDeadline, the attempt is counted as a
// deadline miss, attributed in the trace, and routed to u.lost (which
// consumes the retry budget). The completed work is not billed — the
// result was discarded, matching the epoch-loss path. execStart is when
// execution began, or unstarted.
func (e *engine) missedDeadline(u unit, start, execStart float64) bool {
	if e.opts.TaskDeadline <= 0 || e.c.K.Now()-start <= e.opts.TaskDeadline {
		return false
	}
	e.st.DeadlineMisses++
	e.traceFailure(u, "deadline exceeded", execStart)
	u.lost()
	return true
}

// unstarted is traceFailure's execStart for an attempt lost before it
// began executing.
const unstarted = -1.0

// traceFailure records the loss of u's attempt now: a failure instant
// and, when execution had begun at execStart, the task span it ends.
// Both carry why as their Err.
func (e *engine) traceFailure(u unit, why string, execStart float64) {
	if e.c.Tracer == nil {
		return
	}
	end := trace.Nanos(e.c.K.Now())
	sp := trace.Span{Service: u.node.Name, Name: u.task.Name, Kind: trace.KindTask,
		Attempt: u.attempt, End: end, Err: why}
	if execStart != unstarted {
		sp.Start = trace.Nanos(execStart)
		e.c.Tracer.Add(sp)
	}
	sp.Kind, sp.Start = trace.KindFailure, end
	e.c.Tracer.Add(sp)
}

// stage makes the unit's inputs resident on its node, then calls next.
// With a fabric enabled every input stages through it (cache hits and
// transfer coalescing apply — for reliable runs too). Otherwise stream
// jobs ship their input bytes from the origin vertex in one message, and
// DAG tasks' external inputs are modeled as already resident
// (predecessor edges move intermediate data explicitly).
func (e *engine) stage(u unit, next func()) {
	fabric := e.c.Fabric != nil && len(u.task.Inputs) > 0
	if e.c.Tracer != nil && (fabric || u.origin >= 0) {
		// Only wrap the completion callback when a tracer exists: the
		// extra closure would otherwise cost an allocation per job on the
		// untraced hot path BenchmarkEngineOverhead guards.
		t0, staged := e.c.K.Now(), next
		next = func() {
			e.c.Tracer.Record(t0, e.c.K.Now(), trace.KindStage, u.node.Name, u.task.Name, u.attempt)
			staged()
		}
	}
	switch {
	case fabric:
		e.stageFabric(u, next)
	case u.origin >= 0:
		inBytes := 0.0
		for _, in := range u.task.Inputs {
			inBytes += in.Bytes
		}
		e.c.Net.Message(u.origin, u.node.ID, inBytes, next)
	default:
		next()
	}
}

// stageFabric stages each of u's inputs through the fabric and calls
// next once all of them are resident.
func (e *engine) stageFabric(u unit, next func()) {
	pending := len(u.task.Inputs)
	for _, in := range u.task.Inputs {
		ds := data.Dataset{Name: in.Name, Bytes: in.Bytes}
		e.c.Fabric.Stage(ds, u.node.ID, func(bool) {
			pending--
			if pending == 0 {
				next()
			}
		})
	}
}

// egress charges n's per-byte egress price for bytes leaving n toward
// vertex dst and tallies them in Stats.EgressB. Local delivery (dst is
// n itself) and unbilled nodes are free. This is the single egress
// accounting point for replies and DAG edges alike.
func (e *engine) egress(n *node.Node, dst int, bytes float64) {
	if n.ID == dst || n.EgressPerByte <= 0 {
		return
	}
	e.st.Dollars += n.EgressPerByte * bytes
	e.st.EgressB += bytes
}

// complete finalizes one successful unit at the current virtual time:
// completion counters, the latency observation (now − latencyBase, see
// Stats.Latency for what the base is per workload kind), policy
// feedback, and the makespan high-water mark.
func (e *engine) complete(n *node.Node, latencyBase float64) {
	now := e.c.K.Now()
	e.st.Completed++
	e.st.PerNode[n.Name]++
	lat := now - latencyBase
	e.st.Latency.Add(lat)
	if e.fb != nil {
		e.fb.Observe(n.ID, lat)
	}
	if now > e.st.Makespan {
		e.st.Makespan = now
	}
}

// specGroup tracks one unit's replica set under the Speculate policy:
// how many replicas are still in flight, whether one already delivered,
// and the pending hedge timer (cancelled once the race is decided).
type specGroup struct {
	won         bool
	outstanding int
	timer       sim.Timer
}

// speculate dispatches one unit with hedged execution: the primary runs
// immediately, and if it is still in flight after the hedge delay a
// backup replica launches on the node pickBackup returns. The first
// replica to deliver wins; the loser's result is discarded (and counted
// as preempted) when it eventually completes — node.Execute has no
// mid-flight cancellation, which models real preemption-without-kill:
// the loser's core time and energy were genuinely consumed.
//
// mk builds a unit for a given (node, attempt) pair so each replica's
// delivery path is bound to the node that actually ran it; seq numbers
// every dispatch of the logical job, so primary, backup, and any later
// retry each carry a distinct trace attempt. Loss semantics: a replica
// loss while its sibling is still in flight is absorbed (the sibling
// carries the unit); only when the last outstanding replica is lost does
// the unit's loss path (retry budget) run.
func (e *engine) speculate(mk func(n *node.Node, attempt int) unit, primary *node.Node, seq *int, pickBackup func() *node.Node) {
	g := &specGroup{}
	wrap := func(v unit, backup bool) unit {
		deliver, lost := v.deliver, v.lost
		v.deliver = func() {
			g.outstanding--
			if g.won {
				// The sibling already delivered: this replica lost the race.
				// Its execution was billed in run(); only the result is
				// discarded.
				e.st.PreemptedTasks++
				now := e.c.K.Now()
				e.c.Tracer.Record(now, now, trace.KindPreempt, v.node.Name, v.task.Name, v.attempt)
				return
			}
			g.won = true
			g.timer.Cancel()
			if backup {
				e.st.SpeculativeWins++
			}
			deliver()
		}
		v.lost = func() {
			g.outstanding--
			if g.won || g.outstanding > 0 {
				return // the sibling still carries the unit
			}
			g.timer.Cancel()
			lost()
		}
		return v
	}
	u := mk(primary, *seq)
	*seq++
	if delay, ok := e.hedgeDelay(u); ok {
		g.timer = e.c.K.After(delay, func() {
			if g.won || g.outstanding == 0 {
				return // decided before the hedge delay elapsed
			}
			n := pickBackup()
			if n == nil {
				return // nowhere else to run it
			}
			b := mk(n, *seq)
			*seq++
			e.st.SpeculativeLaunches++
			g.outstanding++
			e.run(wrap(b, true))
		})
	}
	g.outstanding++
	e.run(wrap(u, false))
}

// hedgeDelay is how long an attempt may be in flight before a backup
// launches: the observed latency quantile once enough samples exist,
// else Multiple × the primary node's expected execution time.
func (e *engine) hedgeDelay(u unit) (float64, bool) {
	s := e.opts.Speculate
	if !s.enabled() {
		return 0, false
	}
	if s.Quantile > 0 && e.st.Latency.Count() >= int64(s.minSamples()) {
		if d := e.st.Latency.Quantile(s.Quantile); d > 0 {
			return d, true
		}
	}
	if s.Multiple > 0 {
		if d := s.Multiple * u.node.ExecTime(u.task.ScalarWork, u.task.TensorWork, u.task.Accel); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// retry re-enqueues a failed attempt after RetryBackoff, or counts the
// unit lost and calls exhausted (may be nil) once the budget is spent.
func (e *engine) retry(retriesLeft int, again, exhausted func()) {
	if retriesLeft <= 0 {
		e.st.Lost++
		if exhausted != nil {
			exhausted()
		}
		return
	}
	e.st.Retries++
	e.c.K.After(e.opts.RetryBackoff, again)
}

// runStream is the engine configuration shared by RunStream and
// RunStreamReliable: per-job placement at submit time, inputs staged to
// the chosen node, reply shipped back to the origin, latency measured
// submit→reply (including any retries).
func (c *Continuum) runStream(pol placement.Policy, jobs []StreamJob, candidates []*node.Node, opts ReliableOptions) *ReliableStats {
	if len(candidates) == 0 {
		candidates = c.Nodes
	}
	e := newEngine(c, opts)
	e.fb, _ = pol.(placement.FeedbackPolicy)

	// The policy sees the fixed candidate set and asks Eligible about the
	// nodes it touches. A speculative backup is chosen from a view that
	// also excludes the straggling primary.
	env := &placement.Env{Net: c.Net, Nodes: candidates, Fabric: c.Fabric}
	if e.faults != nil || opts.Cordoned != nil {
		env.Eligible = e.eligible
	}
	var primary *node.Node
	backupEnv := env.Restrict(func(n *node.Node) bool { return n != primary })

	// outstanding is the admission controller's state: jobs admitted at
	// submit time and not yet completed or lost. The kernel is
	// single-threaded, so a plain counter suffices.
	outstanding := 0
	release := func() {
		if opts.Admission.enabled() {
			outstanding--
		}
	}

	var attempt func(j StreamJob, retriesLeft int, seq *int)
	// retry re-dispatches j after the backoff, or counts it lost. The
	// re-dispatch closure is built only when a retry actually happens.
	retry := func(j StreamJob, retriesLeft int, seq *int) {
		e.retry(retriesLeft, func() { attempt(j, retriesLeft-1, seq) }, release)
	}
	attempt = func(j StreamJob, retriesLeft int, seq *int) {
		req := placement.Request{Task: j.Task, Origin: j.Origin}
		n := pol.Select(env, req)
		if n == nil {
			retry(j, retriesLeft, seq) // nothing eligible right now
			return
		}
		// mk binds a replica's delivery path to the node that actually runs
		// it — under speculation a backup executes (and replies from) a
		// different node than the primary.
		mk := func(n *node.Node, attemptNo int) unit {
			return unit{
				task:    j.Task,
				node:    n,
				attempt: attemptNo,
				origin:  j.Origin,
				deliver: func() {
					e.egress(n, j.Origin, j.Task.OutputBytes)
					c.Net.Message(n.ID, j.Origin, j.Task.OutputBytes, func() {
						e.complete(n, j.Submit)
						release()
					})
				},
				lost: func() { retry(j, retriesLeft, seq) },
			}
		}
		if !e.opts.Speculate.enabled() {
			u := mk(n, *seq)
			*seq++
			e.run(u)
			return
		}
		// The backup node is the policy's choice over the candidates that
		// are still eligible (up, not cordoned) at hedge time, with the
		// straggling primary excluded.
		e.speculate(mk, n, seq, func() *node.Node {
			primary = n
			return pol.Select(backupEnv, req)
		})
	}

	for _, j := range jobs {
		j := j
		c.K.At(j.Submit, func() {
			if e.opts.DropSubmit != nil && e.opts.DropSubmit(j.Origin) {
				e.st.Suppressed++
				return
			}
			// Admission: shed at submit time when the job's class watermark
			// is full — the graduated-bound half of the live admission
			// controller (there is no wait queue to evict from here).
			if opts.Admission.enabled() {
				cls := classOf(j.Priority)
				if outstanding >= opts.Admission.classLimit(cls) {
					e.st.Shed++
					e.st.ShedByClass[cls]++
					return
				}
				outstanding++
			}
			attempt(j, opts.MaxRetries, new(int))
		})
	}
	c.K.Run()
	e.st.Joules = c.TotalJoules()
	return e.st
}

// runDAG is the engine configuration shared by RunDAG and
// RunDAGReliable: tasks start when their last prerequisite edge arrives,
// completed outputs are durable (cross-node successor edges are bulk
// transfers), and latency is measured per task ready→finish. Retries
// wait for the assigned node (static schedules pin tasks); exhausting a
// task's retry budget aborts the run.
func (c *Continuum) runDAG(d *task.DAG, sched placement.Schedule, env *placement.Env, opts ReliableOptions) (*ReliableStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(sched.Assign) != d.N() {
		return nil, fmt.Errorf("core: schedule covers %d of %d tasks", len(sched.Assign), d.N())
	}
	e := newEngine(c, opts)

	// waiting[t] counts unsatisfied prerequisites: one per incoming edge.
	waiting := make([]int, d.N())
	for i := 0; i < d.N(); i++ {
		waiting[i] = d.InDegree(task.ID(i))
	}
	started := make([]bool, d.N())
	readyAt := make([]float64, d.N())
	var aborted bool

	var tryStart func(id task.ID)
	var runTask func(id task.ID, retriesLeft int)

	// arrive delivers one prerequisite edge to id.
	arrive := func(id task.ID) {
		waiting[id]--
		tryStart(id)
	}

	seqs := make([]int, d.N()) // per-task dispatch sequence for trace attempts

	runTask = func(id task.ID, retriesLeft int) {
		if aborted {
			return
		}
		tk := d.Tasks[id]
		n := env.Nodes[sched.Assign[id]]
		retry := func() {
			e.retry(retriesLeft,
				func() { runTask(id, retriesLeft-1) },
				func() { aborted = true })
		}
		if !e.eligible(n) {
			retry() // wait out the downtime/cordon; the schedule pins the task here
			return
		}
		// mk binds a replica's successor-edge transfers to the node that
		// actually executed it (a winning backup ships edges from its own
		// node, not the schedule's pinned one).
		mk := func(n *node.Node, attemptNo int) unit {
			return unit{
				task:    tk,
				node:    n,
				attempt: attemptNo,
				origin:  -1,
				deliver: func() {
					e.complete(n, readyAt[id])
					for _, edge := range d.Successors(id) {
						edge := edge
						dst := env.Nodes[sched.Assign[edge.To]]
						if dst.ID == n.ID {
							arrive(edge.To)
							continue
						}
						e.egress(n, dst.ID, edge.Bytes)
						c.Net.Transfer(n.ID, dst.ID, edge.Bytes, func(f *netsim.Flow) {
							if c.Tracer != nil {
								c.Tracer.Record(f.Start, f.Finish, trace.KindTransfer,
									n.Name+"->"+dst.Name, fmt.Sprintf("%.0fB", f.Size), 0)
							}
							arrive(edge.To)
						})
					}
				},
				lost: retry,
			}
		}
		if !e.opts.Speculate.enabled() {
			u := mk(n, seqs[id])
			seqs[id]++
			e.run(u)
			return
		}
		// The schedule pins the primary; the backup goes to the fastest
		// other node that is up at hedge time.
		e.speculate(mk, n, &seqs[id], func() *node.Node {
			var best *node.Node
			bestT := math.Inf(1)
			for _, cand := range env.Nodes {
				if cand == n || !e.eligible(cand) {
					continue
				}
				if et := cand.ExecTime(tk.ScalarWork, tk.TensorWork, tk.Accel); et < bestT {
					bestT, best = et, cand
				}
			}
			return best
		})
	}

	tryStart = func(id task.ID) {
		if started[id] || waiting[id] > 0 || aborted {
			return
		}
		started[id] = true
		readyAt[id] = c.K.Now()
		runTask(id, e.opts.MaxRetries)
	}

	for _, r := range d.Roots() {
		tryStart(r)
	}
	c.K.Run()
	e.st.Joules = c.TotalJoules()

	if aborted {
		return e.st, fmt.Errorf("core: DAG aborted after exhausting retries (%d tasks completed)", e.st.Completed)
	}
	if e.st.Completed != int64(d.N()) {
		return e.st, fmt.Errorf("core: only %d of %d tasks completed", e.st.Completed, d.N())
	}
	return e.st, nil
}
