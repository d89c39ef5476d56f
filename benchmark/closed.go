package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"continuum/internal/metrics"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	outDir   string
}

// result is what a run reports. metrics holds the end-to-end metrics on
// an untraced run and the per-layer metrics on a traced one; info holds
// extra figures that are printed but are not part of the contract.
type result struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	info      map[string]float64
	problems  []string // correctness failures; empty means correct
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, info: map[string]float64{}}
}

// newTracedResult starts every per-layer metric at 0: a traced run
// reports all of them, and a layer off the workload's path stays 0.
func newTracedResult() *result {
	res := newResult()
	for _, m := range perLayer {
		res.metrics[m.Name] = 0
	}
	return res
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// Request-number ranges: timed requests count up from 0; warm-up and
// set-up traffic sit far above, so their spans never join a timed tree.
const warmReqBase = uint64(1) << 61

const (
	// liveSetupReps is how many times a run sets the stack up; setup_s is
	// their median. A set-up is milliseconds of goroutine wake-ups, so
	// single samples scatter by half their value.
	liveSetupReps = 15
	warmupSeconds = 0.5 // untimed closed loop before each timed phase

	// closedCallers is the closed-loop caller and connection count. It is
	// fixed, not nproc: with only as many callers as processors a routed
	// invoke's eight goroutine hand-offs leave processors idle between
	// hops, and on a virtualised box every idle transition is a trip to
	// the hypervisor, so the loop measured the host's wake-up latency:
	// four callers roughly halved the routed workloads' run-to-run
	// spread on the 2-core reference box.
	closedCallers = 4
)

func closedStackConfig(workload string) (stackConfig, int) {
	sc := stackConfig{fn: "echo", capacity: 8, callers: closedCallers}
	size := 64
	switch workload {
	case wRoutedSmall:
		sc.routed, sc.daemons = true, 3
	case wRoutedLarge:
		sc.routed, sc.daemons = true, 3
		size = 64 << 10
	case wDirectSmall:
		sc.daemons = 1
	}
	return sc, size
}

// timedSetups starts the stack reps times, closing all but the last, and
// returns the last stack and each set-up's duration.
func timedSetups(sc stackConfig, reps int) (*stack, []float64, error) {
	var st *stack
	var durs []float64
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(sc); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return st, durs, nil
}

// measureClosed warms the stack up and runs one timed closed-loop phase,
// checking that no timed invocation paid a cold start.
func measureClosed(st *stack, base []byte, seconds float64, rec *recorder, res *result) loopResult {
	closedLoop(st, base, warmReqBase, min(warmupSeconds, seconds), nil)
	cold0, warm0 := st.coldStarts()
	lr := closedLoop(st, base, 0, seconds, rec)
	cold1, warm1 := st.coldStarts()
	lr.cold, lr.warm = cold1-cold0, warm1-warm0
	if lr.cold != 0 {
		res.problem("%d cold starts inside the timed phase: set-up leaked into it", lr.cold)
	}
	if lr.firstErr != nil {
		res.problem("%d of %d invokes failed, first: %v", lr.failed, lr.attempted, lr.firstErr)
	}
	return lr
}

// runClosed is the untraced run of routed-small, direct-small and
// routed-large.
func runClosed(rc runConfig) (*result, error) {
	sc, size := closedStackConfig(rc.workload)
	st, setups, err := timedSetups(sc, liveSetupReps)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := newResult()
	lr := measureClosed(st, seededPayload(rc.seed, size), rc.seconds, nil, res)
	res.attempted, res.failed = lr.attempted, lr.failed
	opsPerS, p50 := reduceWindows(lr.windows)
	res.metrics["ops_per_s"] = opsPerS
	res.metrics["op_p50_us"] = p50
	res.metrics["good_frac"] = float64(lr.attempted-lr.failed) / float64(lr.attempted)
	res.metrics["setup_s"] = median(setups)
	res.info["invoke_p99_us"] = percentile(lr.lats, 0.99)
	res.info["payload_mb_per_s"] = opsPerS * float64(size) / 1e6
	res.info["windows"] = float64(len(lr.windows))
	res.info["window_min_ops_per_s"], res.info["window_max_ops_per_s"] = windowRange(lr.windows)
	return res, nil
}

// runClosedTraced is the traced run: the same stack with the benchmark's
// wrappers around each layer's public entry points, then the plain stack
// again for the wrappers' own cost, then (routed-small) the program's
// SpanStores and metrics registries switched on, then the codec and
// policy probes.
func runClosedTraced(rc runConfig) (*result, error) {
	sc, size := closedStackConfig(rc.workload)
	base := seededPayload(rc.seed, size)
	res := newTracedResult()

	tracedShare, plainShare := 0.6, 0.4
	if rc.workload == wRoutedSmall {
		tracedShare, plainShare = 0.4, 0.2
	}

	tr := liveTree(sc.routed)
	rec := newRecorder(tr)
	tsc := sc
	tsc.rec = rec
	if sc.routed {
		tsc.clientM = metrics.NewRegistry()
	}
	st, err := startStack(tsc)
	if err != nil {
		return nil, err
	}
	invBefore := daemonInvocations(st)
	p0 := readProc()
	lr := measureClosed(st, base, rc.seconds*tracedShare, rec, res)
	p1 := readProc()
	res.attempted, res.failed = lr.attempted, lr.failed
	tracedOps, _ := reduceWindows(lr.windows)

	spans := rec.all()
	self := liveSelfTimes(spans, tr, res)
	res.metrics["faas.admit_self_us"] = meanUS(self[layerDaemon])
	res.metrics["faas.exec_self_us"] = meanUS(self[layerHandler])
	if sc.routed {
		res.metrics["wire.client_hop_self_us"] = meanUS(self[layerClient])
		res.metrics["federation.route_self_us"] = meanUS(self[layerRouter])
		res.metrics["federation.route_excess_us"] = meanUS(self[layerRouter]) - meanUS(self[layerClient])
		res.metrics["federation.order_self_ns"] = meanUS(self[layerPolicy]) * 1e3
		routes, errs := st.router.RouteStats()
		res.metrics["federation.routes"] = float64(routes)
		res.metrics["federation.route_errors"] = float64(errs)
		res.metrics["wire.retries"] = float64(tsc.clientM.Counter("wire_client_retries_total").Value())
		res.metrics["wire.failovers"] = float64(tsc.clientM.Counter("wire_client_failovers_total").Value())
		res.metrics["wire.conn_reuse"] = float64(tsc.clientM.Counter("wire_conn_reuse_total").Value())
	} else {
		res.metrics["wire.hop_self_us"] = meanUS(self[layerClient])
	}
	res.metrics["federation.member_share_max"] = maxShare(invBefore, daemonInvocations(st))
	res.metrics["faas.cold_starts"] = float64(lr.cold)
	res.metrics["faas.warm_hits"] = float64(lr.warm)
	res.metrics["wire.payload_mb_per_s"] = tracedOps * float64(size) / 1e6
	p1.perOp(p0, lr.attempted, res)
	if err := writeTraceFile(rc, spans, tr, sc.callers); err != nil {
		st.close()
		return nil, err
	}
	st.close()

	plainOps, err := closedVariant(sc, base, rc.seconds*plainShare, res)
	if err != nil {
		return nil, err
	}
	res.metrics["bench.trace_overhead_frac"] = overheadFrac(tracedOps, plainOps)
	if rc.workload == wRoutedSmall {
		vsc := sc
		vsc.spanStores = true
		spanOps, err := closedVariant(vsc, base, rc.seconds*plainShare, res)
		if err != nil {
			return nil, err
		}
		vsc = sc
		vsc.metricsOn = true
		metricOps, err := closedVariant(vsc, base, rc.seconds*plainShare, res)
		if err != nil {
			return nil, err
		}
		res.metrics["trace.spans_overhead_frac"] = overheadFrac(spanOps, plainOps)
		res.metrics["metrics.overhead_frac"] = overheadFrac(metricOps, plainOps)
	}
	liveProbes(rc.seed, res)
	return res, nil
}

// liveSelfTimes attributes the client spans to the layers, checks that
// the self times add back up within 2 %, and reports the client span
// itself.
func liveSelfTimes(spans []span, tr tree, res *result) [][]int64 {
	self, roots := selfTimes(spans, tr)
	if err := reconcile(self, roots, 0.02); err != nil {
		res.problem("%v", err)
	}
	rootsUS := make([]float64, len(roots))
	for i, d := range roots {
		rootsUS[i] = float64(d) / 1e3
	}
	sort.Float64s(rootsUS)
	res.metrics["client.invoke_mean_us"] = mean(rootsUS)
	res.metrics["client.invoke_p99_us"] = percentile(rootsUS, 0.99)
	return self
}

// closedVariant runs one more closed-loop phase on a fresh stack and
// returns its throughput.
func closedVariant(sc stackConfig, base []byte, seconds float64, res *result) (float64, error) {
	st, err := startStack(sc)
	if err != nil {
		return 0, err
	}
	defer st.close()
	lr := measureClosed(st, base, seconds, nil, res)
	res.attempted += lr.attempted
	res.failed += lr.failed
	ops, _ := reduceWindows(lr.windows)
	return ops, nil
}

func daemonInvocations(st *stack) []int64 {
	out := make([]int64, len(st.daemons))
	for i, d := range st.daemons {
		out[i] = d.ep.Invocations()
	}
	return out
}

// maxShare is the largest share of the phase's invocations one daemon
// took: 1/daemons is perfect hash balance.
func maxShare(before, after []int64) float64 {
	var total, top int64
	for i := range after {
		d := after[i] - before[i]
		total += d
		if d > top {
			top = d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// writeTraceFile writes <out>/<workload>.trace.json in Chrome format.
func writeTraceFile(rc runConfig, spans []span, t tree, lanes int) error {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(rc.outDir, rc.workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := writeChromeTrace(f, spans, t, lanes); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// overheadFrac is the share of the plain throughput a variant loses.
func overheadFrac(variant, plain float64) float64 {
	if plain == 0 {
		return 0
	}
	return 1 - variant/plain
}
