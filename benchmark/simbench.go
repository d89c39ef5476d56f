package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"continuum/internal/scenario"
	"continuum/internal/sim"
)

// Span tree of the simulator workloads' traced runs: one root per
// workload and one child per timed call into a layer's public function.
const (
	simRoot layer = iota
	simGenerate
	simValidate
	simRun
	simRunTraced
	simRunParallel
	simRun64
	simKernelFill
	simKernelWarm
	simKernelRun
	simKernelProbes
)

var simTree = tree{
	names: []string{"bench", "scenario.GenerateStress", "scenario.Validate", "scenario.Run", "scenario.RunTraced",
		"scenario.RunTracedParallel", "scenario.Run/64n", "sim.Kernel/fill", "sim.Kernel/warm-up", "sim.Kernel.Run", "sim.Kernel/probes"},
	parents: []layer{layerNone, simRoot, simRoot, simRoot, simRoot, simRoot, simRoot, simRoot, simRoot, simRoot, simRoot},
}

// timeSpan runs fn as one span of layer l.
func timeSpan(rec *recorder, l layer, fn func()) float64 {
	start := rec.now()
	fn()
	end := rec.now()
	rec.add(l, 0, start, end)
	return float64(end-start) / 1e9
}

// finishSimTrace closes the root span, checks the tree adds up and
// writes the trace file.
func finishSimTrace(rc runConfig, rec *recorder, res *result) error {
	rec.add(simRoot, 0, 0, rec.now())
	spans := rec.all()
	self, roots := selfTimes(spans, simTree)
	if err := reconcile(self, roots, 0.02); err != nil {
		res.problem("%v", err)
	}
	return writeTraceFile(rc, spans, simTree, 1)
}

// The sim-stress scenario. The fleet size sets the regime (a
// 1000-candidate placement scan per task); the horizon is short enough
// that a run fits several repetitions into --seconds.
var stressSpec = scenario.StressSpec{Nodes: 1000, Origins: 64, Rate: 8, Horizon: 8}

const simSetupReps = 41 // generate+validate takes about a millisecond

func stressScenario(seed uint64, spec scenario.StressSpec) (*scenario.Scenario, error) {
	spec.Seed = seed
	s := scenario.GenerateStress(spec)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("generated stress scenario is invalid: %w", err)
	}
	return s, nil
}

// reportSHA is the identity of a simulated result: the first 48 bits of
// the SHA-256 of the marshalled report (48 so a float64 holds it
// exactly). A simulator speed-up must leave it unchanged for a seed.
func reportSHA(r *scenario.Report) (float64, error) {
	blob, err := json.Marshal(r)
	if err != nil {
		return 0, fmt.Errorf("marshal report: %w", err)
	}
	sum := sha256.Sum256(blob)
	return float64(binary.BigEndian.Uint64(sum[:8]) >> 16), nil
}

// runSimStress is the untraced run: generate+validate (set-up, several
// times), then Scenario.Run repeated for --seconds. Every repetition
// must produce the identical report.
func runSimStress(rc runConfig, spec scenario.StressSpec) (*result, error) {
	var s *scenario.Scenario
	var setups []float64
	for i := 0; i < simSetupReps; i++ {
		t0 := time.Now()
		var err error
		if s, err = stressScenario(rc.seed, spec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := newResult()
	var ws []window
	var sha0 float64
	var lost int64
	start := time.Now()
	for rep := 0; rep < 2 || time.Since(start).Seconds() < rc.seconds; rep++ {
		t0 := time.Now()
		r, err := s.Run()
		dt := time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("scenario run: %w", err)
		}
		sha, err := reportSHA(r)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			sha0 = sha
		} else if sha != sha0 {
			res.problem("repetition %d produced a different report (sha %x, first %x): same seed must give the same simulated result", rep+1, uint64(sha), uint64(sha0))
		}
		if r.Completed == 0 {
			return nil, fmt.Errorf("scenario completed no tasks")
		}
		ws = append(ws, window{ops: r.Completed, dur: dt, p50us: dt / float64(r.Completed) * 1e6})
		res.attempted += r.Completed + r.Lost
		lost += r.Lost
	}
	if lost > 0 {
		res.problem("%d simulated tasks lost", lost)
	}
	res.failed = lost
	res.metrics["ops_per_s"], res.metrics["op_p50_us"] = reduceWindows(ws)
	res.metrics["good_frac"] = float64(res.attempted-lost) / float64(res.attempted)
	res.metrics["setup_s"] = median(setups)
	res.info["repetitions"] = float64(len(ws))
	res.info["report_sha"] = sha0
	return res, nil
}

// runSimStressTraced times each public call of the scenario layer once,
// checks Run against RunTraced and RunTracedParallel, and runs the same
// generator at 64 nodes to separate engine dispatch from the placement
// scan.
func runSimStressTraced(rc runConfig, spec scenario.StressSpec) (*result, error) {
	res := newTracedResult()
	rec := newRecorder(simTree)
	p0 := readProc()
	spec.Seed = rc.seed
	var s *scenario.Scenario
	res.metrics["scenario.generate_s"] = timeSpan(rec, simGenerate, func() { s = scenario.GenerateStress(spec) })
	var err error
	res.metrics["scenario.validate_s"] = timeSpan(rec, simValidate, func() { err = s.Validate() })
	if err != nil {
		return nil, fmt.Errorf("generated stress scenario is invalid: %w", err)
	}
	var plain, traced, parallel, small *scenario.Report
	// One untimed run first: the first run of a process grows the heap
	// and reads slower than the traced runs that would follow it.
	if _, err := s.Run(); err != nil {
		return nil, fmt.Errorf("scenario run: %w", err)
	}
	res.metrics["scenario.run_s"] = timeSpan(rec, simRun, func() { plain, err = s.Run() })
	if err != nil {
		return nil, fmt.Errorf("scenario run: %w", err)
	}
	res.metrics["scenario.run_traced_s"] = timeSpan(rec, simRunTraced, func() { traced, _, err = s.RunTraced() })
	if err != nil {
		return nil, fmt.Errorf("scenario traced run: %w", err)
	}
	res.metrics["scenario.run_parallel_s"] = timeSpan(rec, simRunParallel, func() { parallel, _, err = s.RunTracedParallel(runtime.NumCPU()) })
	if err != nil {
		return nil, fmt.Errorf("scenario parallel traced run: %w", err)
	}
	p1 := readProc()
	res.metrics["trace.sim_overhead_frac"] = res.metrics["scenario.run_traced_s"]/res.metrics["scenario.run_s"] - 1

	sha, err := reportSHA(plain)
	if err != nil {
		return nil, err
	}
	for name, r := range map[string]*scenario.Report{"RunTraced": traced, "RunTracedParallel": parallel} {
		other, err := reportSHA(r)
		if err != nil {
			return nil, err
		}
		if other != sha {
			res.problem("%s produced a different report than Run (sha %x against %x)", name, uint64(other), uint64(sha))
		}
	}
	res.metrics["sim.completed"] = float64(plain.Completed)
	res.metrics["sim.retries"] = float64(plain.Retries)
	res.metrics["sim.lost"] = float64(plain.Lost)
	res.metrics["sim.report_sha"] = sha
	res.attempted = plain.Completed + plain.Lost
	res.failed = plain.Lost
	if plain.Lost > 0 {
		res.problem("%d simulated tasks lost", plain.Lost)
	}
	p1.perOp(p0, 4*res.attempted, res)

	spec64 := spec
	spec64.Nodes, spec64.Origins = 64, 16
	s64, err := stressScenario(rc.seed, spec64)
	if err != nil {
		return nil, err
	}
	dt := timeSpan(rec, simRun64, func() { small, err = s64.Run() })
	if err != nil {
		return nil, fmt.Errorf("64-node scenario run: %w", err)
	}
	res.metrics["core.tasks_per_s_64n"] = float64(small.Completed) / dt
	return res, finishSimTrace(rc, rec, res)
}

// The sim-kernel hold model: a constant population of self-rescheduling
// event chains with uniform [0,1) gaps, so every fired event costs one
// dequeue and one enqueue at a fixed queue size.
const (
	kernelPending   = 1_000_000
	kernelChunk     = 1 << 16 // events per timed Run call
	kernelSetupReps = 5
)

// holdModel owns one kernel running the hold model.
type holdModel struct {
	k      *sim.Kernel
	fired  int
	quota  int
	cycles uint64 // events this model has asked the kernel to fire
}

func newHoldModel(kind sim.QueueKind, seed uint64, pending int) *holdModel {
	h := &holdModel{k: sim.NewKernelQueue(kind)}
	rng := rand.New(rand.NewSource(int64(seed)))
	var hop func()
	hop = func() {
		h.k.After(rng.Float64(), hop)
		h.fired++
		if h.fired >= h.quota {
			h.k.Stop()
		}
	}
	for i := 0; i < pending; i++ {
		h.k.After(rng.Float64(), hop)
	}
	return h
}

// run fires exactly n events and returns the host seconds it took.
func (h *holdModel) run(n int) float64 {
	h.fired, h.quota = 0, n
	h.cycles += uint64(n)
	t0 := time.Now()
	h.k.Run()
	return time.Since(t0).Seconds()
}

// check verifies the kernel fired what it was asked to and still holds
// the whole population.
func (h *holdModel) check(pending int, res *result) {
	if h.k.Fired() != h.cycles {
		res.problem("kernel fired %d events, %d were run", h.k.Fired(), h.cycles)
	}
	if h.k.Pending() != pending {
		res.problem("kernel holds %d pending events, want the constant population of %d", h.k.Pending(), pending)
	}
}

// timedHold runs chunks until seconds have passed and groups them into
// windows of windowSeconds.
func timedHold(h *holdModel, seconds float64) []window {
	var ws []window
	var cur window
	var perEvent []float64
	flush := func() {
		cur.p50us = median(perEvent)
		ws = append(ws, cur)
		cur, perEvent = window{}, perEvent[:0]
	}
	width := min(windowSeconds, seconds)
	for total := 0.0; total < seconds; {
		dt := h.run(kernelChunk)
		total += dt
		cur.ops += kernelChunk
		cur.dur += dt
		perEvent = append(perEvent, dt/kernelChunk*1e6)
		if cur.dur >= width {
			flush()
		}
	}
	if len(ws) == 0 {
		flush()
	}
	return ws
}

// runSimKernel is the untraced run: fill the population and warm up with
// a tenth of it (set-up, several times), then timed chunks for --seconds.
func runSimKernel(rc runConfig, pending int) (*result, error) {
	var h *holdModel
	var setups []float64
	for i := 0; i < kernelSetupReps; i++ {
		h = nil
		runtime.GC() // the previous population is garbage; collect it outside the timing
		t0 := time.Now()
		h = newHoldModel(sim.QueueCalendar, rc.seed, pending)
		h.run(pending / 10)
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := newResult()
	ws := timedHold(h, rc.seconds)
	h.check(pending, res)
	for _, w := range ws {
		res.attempted += w.ops
	}
	res.metrics["ops_per_s"], res.metrics["op_p50_us"] = reduceWindows(ws)
	res.metrics["good_frac"] = 1
	res.metrics["setup_s"] = median(setups)
	res.info["kernel_fired"] = float64(h.k.Fired())
	res.info["windows"] = float64(len(ws))
	return res, nil
}

// runSimKernelTraced times fill, warm-up and the timed run as spans, and
// then uses the kernel the other ways round: a small population, the
// binary-heap reference, a schedule+cancel cycle and the sharded group.
func runSimKernelTraced(rc runConfig, pending int) (*result, error) {
	res := newTracedResult()
	rec := newRecorder(simTree)
	var h *holdModel
	timeSpan(rec, simKernelFill, func() { h = newHoldModel(sim.QueueCalendar, rc.seed, pending) })
	timeSpan(rec, simKernelWarm, func() { h.run(pending / 10) })
	var ws []window
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p0 := readProc()
	timeSpan(rec, simKernelRun, func() { ws = timedHold(h, rc.seconds*0.4) })
	p1 := readProc()
	runtime.ReadMemStats(&m1)
	h.check(pending, res)
	for _, w := range ws {
		res.attempted += w.ops
	}
	res.metrics["sim.kernel_fired"] = float64(h.k.Fired())
	res.metrics["sim.allocs_per_event"] = float64(m1.Mallocs-m0.Mallocs) / float64(res.attempted)
	p1.perOp(p0, res.attempted, res)
	h = nil
	runtime.GC()

	timeSpan(rec, simKernelProbes, func() {
		probe := func(kind sim.QueueKind, n int) float64 {
			hm := newHoldModel(kind, rc.seed, n)
			hm.run(n / 10)
			rate, _ := reduceWindows(timedHold(hm, rc.seconds*0.1))
			hm.check(n, res)
			return rate
		}
		res.metrics["sim.events_per_s_1k"] = probe(sim.QueueCalendar, 1000)
		res.metrics["sim.heap_events_per_s"] = probe(sim.QueueHeap, pending)
		runtime.GC()

		k := sim.NewKernel()
		res.metrics["sim.cancel_cycle_ns"] = nsPerCall(func() {
			if !k.After(1, func() {}).Cancel() {
				res.problem("Timer.Cancel on a pending timer returned false")
			}
		})

		serialRate, serialFired := groupRun(pending/4, 1)
		parRate, parFired := groupRun(pending/4, runtime.NumCPU())
		res.info["group_serial_events_per_s"] = serialRate
		res.metrics["sim.group_events_per_s"] = parRate
		if serialFired == parFired {
			res.metrics["sim.group_identical"] = 1
		} else {
			res.problem("sharded group fired %d events with %d workers and %d with one", parFired, runtime.NumCPU(), serialFired)
		}
	})
	return res, finishSimTrace(rc, rec, res)
}

// groupRun builds the 8-shard workload of continuum-bench -engine —
// per-shard self-rescheduling chains with a cross-shard post every 64th
// event — and runs it with the given worker count.
func groupRun(events, workers int) (eventsPerS float64, fired uint64) {
	const shards = 8
	g := sim.NewGroup(shards, 0.05)
	for s := 0; s < shards; s++ {
		s := s
		rng := rand.New(rand.NewSource(int64(100 + s)))
		k := g.Shard(s)
		remaining := events / shards
		var step func()
		step = func() {
			if remaining <= 0 {
				return
			}
			remaining--
			k.After(0.001+rng.Float64(), func() {
				step()
				if remaining%64 == 0 {
					g.Post(s, (s+1)%shards, k.Now()+g.Lookahead()+rng.Float64(), func() {})
				}
			})
		}
		step()
	}
	t0 := time.Now()
	fired = g.Run(workers)
	return float64(fired) / time.Since(t0).Seconds(), fired
}
