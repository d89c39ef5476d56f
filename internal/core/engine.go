package core

import (
	"fmt"
	"math"
	"time"

	"continuum/internal/data"
	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/retry"
	"continuum/internal/sim"
	"continuum/internal/task"
	"continuum/internal/trace"
)

// engine is the single execution loop behind both public runners
// (RunStream and RunDAG). Every unit of work — an online stream job or
// one DAG task — flows through the same pipeline:
//
//	stage inputs → epoch-check → execute → epoch-check →
//	    account cost/egress → deliver outputs → feedback/trace
//
// Fault-awareness is not a separate runner: it is the Options hook.
// With the zero value (no Faults) every epoch-check is a no-op, no retry
// can ever fire, and no backup replica is ever launched, so a run given
// a retry budget but no faults is the same computation as a run with
// zero Options — the equivalence property engine_test.go asserts.
// Deadlines (TaskDeadline) and speculation/preemption (Speculate) are
// likewise hooks on this shared pipeline, so both workloads inherit them
// at once.
type engine struct {
	c    *Continuum
	st   *Stats
	opts Options
	// fb receives measured latencies when the policy implements
	// placement.FeedbackPolicy (stream runs only).
	fb placement.FeedbackPolicy

	// faults is opts.Faults indexed by node ID (nil: always up), so the
	// eligibility and epoch checks are slice reads. It is nil without
	// faults.
	faults []*fault.Target
}

// defaultRetryBackoff paces re-dispatch when Options leaves RetryBackoff
// unset.
const defaultRetryBackoff = 0.1

func newEngine(c *Continuum, opts Options) *engine {
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = defaultRetryBackoff
	}
	e := &engine{c: c, st: newStats(), opts: opts}
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

	// owner is told how the attempt ended.
	owner owner
}

// owner is what an attempt reports its end to. A stream job and a DAG
// task own their attempts; under speculation each replica's owner is its
// place in the replica group, which tells the unit's owner once the race
// is decided.
type owner interface {
	// delivered runs after successful execution and cost accounting, at
	// the end of execution: stream jobs send the reply message, DAG
	// tasks count completion and launch successor edge transfers. u is
	// the attempt, so its node is the one that actually ran it.
	delivered(u unit)
	// lost runs instead of delivered when the host's failure epoch
	// advanced mid-attempt (inputs or results on a failed node), the
	// attempt overran its deadline, or chaos dropped it.
	lost()
}

// run admits one attempt into the pipeline, consulting the Disturb hook
// first: a drawn delay re-enters late via the kernel, a drawn drop is
// routed to its owner's lost exactly like an epoch failure. With a nil
// hook this is a direct call to dispatch.
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
		u.owner.lost()
		return
	}
	e.dispatch(u)
}

// dispatch drives one attempt through the pipeline. Epoch checks bracket
// the execution: the epoch is sampled at dispatch, re-checked after
// input staging and after execution, and any advance routes to the
// owner's lost with a Failure trace record. TaskDeadline is checked at
// the same two points against virtual time elapsed since dispatch; an
// overrun attempt is treated exactly like a lost one. With zero-value
// options every check is a no-op.
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
			u.owner.lost()
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
		u.owner.lost()
		return
	}
	if e.missedDeadline(u, start, execStart) {
		return
	}
	e.c.Tracer.Record(execStart, e.c.K.Now(), trace.KindTask, u.node.Name, u.task.Name, u.attempt)
	execTime := u.node.ExecTime(u.task.ScalarWork, u.task.TensorWork, u.task.Accel)
	e.st.Dollars += u.node.DollarCost(execTime)
	u.owner.delivered(u)
}

// missedDeadline enforces the per-attempt deadline: when virtual time
// since dispatch exceeds TaskDeadline, the attempt is counted as a
// deadline miss, attributed in the trace, and routed to its owner's lost
// (which consumes the retry budget). The completed work is not billed —
// the result was discarded, matching the epoch-loss path. execStart is
// when execution began, or unstarted.
func (e *engine) missedDeadline(u unit, start, execStart float64) bool {
	if e.opts.TaskDeadline <= 0 || e.c.K.Now()-start <= e.opts.TaskDeadline {
		return false
	}
	e.st.DeadlineMisses++
	e.traceFailure(u, "deadline exceeded", execStart)
	u.owner.lost()
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
// transfer coalescing apply — with or without faults). Otherwise stream
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
// the unit's owner, how many replicas are still in flight, whether one
// already delivered, and the pending hedge timer (cancelled once the race
// is decided). replicas are the primary's and the backup's owners.
type specGroup struct {
	e           *engine
	owner       owner
	replicas    [2]specReplica
	won         bool
	outstanding int
	timer       sim.Timer
}

// specReplica owns one replica of a speculated unit.
type specReplica struct {
	g      *specGroup
	backup bool
}

func (r *specReplica) delivered(u unit) {
	g, e := r.g, r.g.e
	g.outstanding--
	if g.won {
		// The sibling already delivered: this replica lost the race. Its
		// execution was billed in executed(); only the result is
		// discarded.
		e.st.PreemptedTasks++
		now := e.c.K.Now()
		e.c.Tracer.Record(now, now, trace.KindPreempt, u.node.Name, u.task.Name, u.attempt)
		return
	}
	g.won = true
	g.timer.Cancel()
	if r.backup {
		e.st.SpeculativeWins++
	}
	g.owner.delivered(u)
}

func (r *specReplica) lost() {
	g := r.g
	g.outstanding--
	if g.won || g.outstanding > 0 {
		return // the sibling still carries the unit
	}
	g.timer.Cancel()
	g.owner.lost()
}

// speculate dispatches unit u with hedged execution: the primary runs
// immediately, and if it is still in flight after the hedge delay a
// backup replica launches on the node pickBackup returns. The first
// replica to deliver wins; the loser's result is discarded (and counted
// as preempted) when it eventually completes — node.Execute has no
// mid-flight cancellation, which models real preemption-without-kill:
// the loser's core time and energy were genuinely consumed.
//
// Each replica is u on its own node, so its delivery path is bound to
// the node that actually ran it; seq numbers every dispatch of the
// logical job, so primary, backup, and any later retry each carry a
// distinct trace attempt. Loss semantics: a replica loss while its
// sibling is still in flight is absorbed (the sibling carries the unit);
// only when the last outstanding replica is lost does u's owner hear of
// it (and spend its retry budget).
func (e *engine) speculate(u unit, seq *int, pickBackup func() *node.Node) {
	g := &specGroup{e: e, owner: u.owner}
	g.replicas = [2]specReplica{{g: g}, {g: g, backup: true}}
	u.attempt, u.owner = *seq, &g.replicas[0]
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
			b := u
			b.node, b.attempt, b.owner = n, *seq, &g.replicas[1]
			*seq++
			e.st.SpeculativeLaunches++
			g.outstanding++
			e.run(b)
		})
	}
	g.outstanding++
	e.run(u)
}

// hedgeDelay is how long an attempt may be in flight before a backup
// launches: the live client's rule over the observed latency once it
// engages, else Multiple × the primary node's expected execution time.
func (e *engine) hedgeDelay(u unit) (float64, bool) {
	s := e.opts.Speculate
	if !s.enabled() {
		return 0, false
	}
	if s.Quantile > 0 {
		if d, ok := retry.HedgeDelay(e.st.Latency, s.Quantile); ok {
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

// streamRun is RunStream's engine configuration: per-job placement at
// submit time, inputs staged to the chosen node, reply shipped back to
// the origin, latency measured submit→reply (including any retries).
type streamRun struct {
	e   *engine
	pol placement.Policy
	// env is the fixed candidate set; the policy asks Eligible about the
	// nodes it touches. backupEnv also excludes primary, the straggler a
	// speculative backup must avoid.
	env, backupEnv *placement.Env
	primary        *node.Node
	// gate is the live endpoint's admission gate in kernel time. A job
	// holds a slot from admission until it completes or is lost; release
	// hands the slot to the next queued job, which starts then.
	gate *faas.Gate[*streamJob]
}

// streamJob owns every attempt at one stream job: the job, its retry
// budget and the trace attempt number of its next dispatch. A job's
// attempts run one after another (a speculated attempt reports once, for
// both replicas), so one record carries them all.
type streamJob struct {
	r           *streamRun
	job         StreamJob
	retriesLeft int
	seq         int
}

// RunStream executes jobs under pol: each job's inputs move to the
// selected node (via the fabric when enabled, else shipped from the
// origin), the task executes, and the result returns to the origin. The
// returned stats measure submit→reply latency, including retry backoff
// and re-dispatch. Candidates defaults to all nodes when nil.
//
// Under opts, placement only considers candidates that are up and not
// cordoned, and work whose host fails mid-flight (epoch change between
// dispatch and completion) is lost and re-dispatched up to MaxRetries
// times. RunStream owns the kernel: it schedules all submissions and
// runs the simulation to completion.
func (c *Continuum) RunStream(pol placement.Policy, jobs []StreamJob, candidates []*node.Node, opts Options) *Stats {
	if len(candidates) == 0 {
		candidates = c.Nodes
	}
	e := newEngine(c, opts)
	e.fb, _ = pol.(placement.FeedbackPolicy)
	r := &streamRun{e: e, pol: pol, env: &placement.Env{Net: c.Net, Nodes: candidates, Fabric: c.Fabric}}
	if e.faults != nil || opts.Cordoned != nil {
		r.env.Eligible = e.eligible
	}
	r.backupEnv = r.env.Restrict(func(n *node.Node) bool { return n != r.primary })
	if opts.Admission > 0 {
		r.gate = faas.NewGate[*streamJob](faas.AdmissionConfig{Enabled: true}, opts.Admission)
	}

	recs := make([]streamJob, len(jobs))
	for i, j := range jobs {
		a := &recs[i]
		*a = streamJob{r: r, job: j, retriesLeft: opts.MaxRetries}
		c.K.At(j.Submit, func() { r.submit(a) })
	}
	c.K.Run()
	e.st.Joules = c.TotalJoules()
	if r.gate != nil {
		e.st.ShedByClass = r.gate.Shed()
		for _, n := range e.st.ShedByClass {
			e.st.Shed += n
		}
	}
	return e.st
}

// submit runs at a job's submit time.
func (r *streamRun) submit(a *streamJob) {
	e := r.e
	if e.opts.DropSubmit != nil && e.opts.DropSubmit(a.job.Origin) {
		e.st.Suppressed++
		return
	}
	// A queued job starts from release; a shed or evicted one never
	// starts, and the gate counts it.
	if r.gate != nil {
		if admitted, _, _ := r.gate.Arrive(a.job.Priority, a); !admitted {
			return
		}
	}
	r.attempt(a)
}

// attempt places the job and dispatches it, or retries it when nothing
// is eligible right now.
func (r *streamRun) attempt(a *streamJob) {
	e := r.e
	req := placement.Request{Task: a.job.Task, Origin: a.job.Origin}
	n := r.pol.Select(r.env, req)
	if n == nil {
		r.retry(a)
		return
	}
	u := unit{task: a.job.Task, node: n, origin: a.job.Origin, owner: a}
	if !e.opts.Speculate.enabled() {
		u.attempt = a.seq
		a.seq++
		e.run(u)
		return
	}
	// The backup node is the policy's choice over the candidates that are
	// still eligible (up, not cordoned) at hedge time, with the
	// straggling primary excluded.
	e.speculate(u, &a.seq, func() *node.Node {
		r.primary = n
		return r.pol.Select(r.backupEnv, req)
	})
}

// retry re-dispatches the job after the backoff, or counts it lost and
// frees its slot. The re-dispatch closure is built only when a retry
// actually happens.
func (r *streamRun) retry(a *streamJob) {
	r.e.retry(a.retriesLeft, func() {
		a.retriesLeft--
		r.attempt(a)
	}, r.release)
}

// release frees a finished job's admission slot; a job queued behind it
// starts now.
func (r *streamRun) release() {
	if r.gate == nil {
		return
	}
	if w := r.gate.Release(); w != nil {
		// The job queued on arrival, at its submit time.
		r.gate.Observe(time.Duration((r.e.c.K.Now() - w.Val.job.Submit) * float64(time.Second)))
		r.attempt(w.Val)
	}
}

// delivered ships the result from the node that ran the attempt back to
// the job's origin, where the job completes.
func (a *streamJob) delivered(u unit) {
	e, n := a.r.e, u.node
	e.egress(n, a.job.Origin, a.job.Task.OutputBytes)
	e.c.Net.Message(n.ID, a.job.Origin, a.job.Task.OutputBytes, func() {
		e.complete(n, a.job.Submit)
		a.r.release()
	})
}

func (a *streamJob) lost() { a.r.retry(a) }

// dagRun is RunDAG's engine configuration: tasks start when their last
// prerequisite edge arrives, completed outputs are durable (cross-node
// successor edges are bulk transfers), and latency is measured per task
// ready→finish. Retries wait for the assigned node (static schedules pin
// tasks); exhausting a task's retry budget aborts the run.
type dagRun struct {
	e       *engine
	d       *task.DAG
	sched   placement.Schedule
	env     *placement.Env
	tasks   []dagTask
	aborted bool
}

// dagTask owns every attempt at one DAG task, and counts its
// prerequisites until it starts.
type dagTask struct {
	r  *dagRun
	id task.ID
	// waiting counts unsatisfied prerequisites: one per incoming edge.
	waiting int
	started bool
	readyAt float64
	// retriesLeft is the task's retry budget and seq the trace attempt
	// number of its next dispatch.
	retriesLeft, seq int
}

// RunDAG executes schedule sched of d under the full contention model:
// a task starts once every predecessor's edge data has arrived (bulk
// Transfer for cross-node edges) and its external inputs are staged
// (through the fabric when enabled). Makespan is the headline number for
// the F2 experiment.
//
// Under opts, a completed task's outputs are durable (checkpointed), but
// a task whose host fails mid-execution is lost and re-executed once the
// host repairs — up to MaxRetries times per task, after which the run
// aborts. Retries wait for the assigned node; RetryBackoff paces the
// re-check while it is down. RunDAG owns the kernel: it runs the
// simulation to completion and errors, with the stats so far, if the run
// aborted or any task never became runnable (a malformed schedule).
func (c *Continuum) RunDAG(d *task.DAG, sched placement.Schedule, env *placement.Env, opts Options) (*Stats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(sched.Assign) != d.N() {
		return nil, fmt.Errorf("core: schedule covers %d of %d tasks", len(sched.Assign), d.N())
	}
	e := newEngine(c, opts)
	r := &dagRun{e: e, d: d, sched: sched, env: env, tasks: make([]dagTask, d.N())}
	for i := range r.tasks {
		r.tasks[i] = dagTask{r: r, id: task.ID(i), waiting: d.InDegree(task.ID(i))}
	}
	for _, root := range d.Roots() {
		r.tryStart(root)
	}
	c.K.Run()
	e.st.Joules = c.TotalJoules()

	if r.aborted {
		return e.st, fmt.Errorf("core: DAG aborted after exhausting retries (%d tasks completed)", e.st.Completed)
	}
	if e.st.Completed != int64(d.N()) {
		return e.st, fmt.Errorf("core: only %d of %d tasks completed", e.st.Completed, d.N())
	}
	return e.st, nil
}

// tryStart starts id once its last prerequisite has arrived.
func (r *dagRun) tryStart(id task.ID) {
	t := &r.tasks[id]
	if t.started || t.waiting > 0 || r.aborted {
		return
	}
	t.started = true
	t.readyAt = r.e.c.K.Now()
	t.retriesLeft = r.e.opts.MaxRetries
	r.run(t)
}

// arrive delivers one prerequisite edge to id.
func (r *dagRun) arrive(id task.ID) {
	r.tasks[id].waiting--
	r.tryStart(id)
}

// run dispatches t to the node the schedule pins it to.
func (r *dagRun) run(t *dagTask) {
	if r.aborted {
		return
	}
	e := r.e
	tk := r.d.Tasks[t.id]
	n := r.env.Nodes[r.sched.Assign[t.id]]
	if !e.eligible(n) {
		t.lost() // wait out the downtime/cordon; the schedule pins the task here
		return
	}
	u := unit{task: tk, node: n, origin: -1, owner: t}
	if !e.opts.Speculate.enabled() {
		u.attempt = t.seq
		t.seq++
		e.run(u)
		return
	}
	// The schedule pins the primary; the backup goes to the fastest
	// other node that is up at hedge time.
	e.speculate(u, &t.seq, func() *node.Node {
		var best *node.Node
		bestT := math.Inf(1)
		for _, cand := range r.env.Nodes {
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

// delivered completes the task and launches its successor edges from
// the node that ran it (a winning backup ships edges from its own node,
// not the schedule's pinned one).
func (t *dagTask) delivered(u unit) {
	r, n := t.r, u.node
	e, c := r.e, r.e.c
	e.complete(n, t.readyAt)
	for _, edge := range r.d.Successors(t.id) {
		dst := r.env.Nodes[r.sched.Assign[edge.To]]
		if dst.ID == n.ID {
			r.arrive(edge.To)
			continue
		}
		e.egress(n, dst.ID, edge.Bytes)
		c.Net.Transfer(n.ID, dst.ID, edge.Bytes, func(f *netsim.Flow) {
			if c.Tracer != nil {
				c.Tracer.Record(f.Start, f.Finish, trace.KindTransfer,
					n.Name+"->"+dst.Name, fmt.Sprintf("%.0fB", f.Size), 0)
			}
			r.arrive(edge.To)
		})
	}
}

// lost retries the task after the backoff, or aborts the run once its
// budget is spent.
func (t *dagTask) lost() {
	r := t.r
	r.e.retry(t.retriesLeft, func() {
		t.retriesLeft--
		r.run(t)
	}, func() { r.aborted = true })
}
