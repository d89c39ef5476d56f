package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"

	"continuum/internal/faas"
	"continuum/internal/wire"
)

// The overload-open workload: one daemon with 4 slots and a 5 ms handler
// serves 800 requests/s; arrivals are offered at fixed fractions of that
// rate whether or not earlier ones have been answered.
const (
	overloadCapacity = 4
	overloadWork     = 5 * time.Millisecond
	overloadService  = 800.0                 // requests/s the daemon can serve
	overloadLimit    = 50 * time.Millisecond // latency limit, from the due time
	disturbedLate    = 10 * time.Millisecond // generator lateness p99 that spoils a run
)

// rateStep is one fixed offered rate, held for share of the run.
type rateStep struct {
	name   string
	factor float64 // offered rate as a multiple of overloadService
	share  float64 // share of --seconds
}

// Ascending, so a step never inherits a backlog from a heavier one; the
// light step is short because only the two heavier ones carry end-to-end
// metrics.
var rateSteps = []rateStep{{"0.5x", 0.5, 0.2}, {"0.8x", 0.8, 0.4}, {"2x", 2, 0.4}}

const (
	stepLight = iota
	stepBelow // 0.8x: good_frac
	stepOver  // 2x: ops_per_s (goodput), op_p50_us
)

// arrival is one scheduled request: when it is due (from the step's
// start) and its admission class.
type arrival struct {
	due  time.Duration
	prio faas.Priority
}

// buildSchedule is the whole open-loop input: Poisson arrivals at each
// step's rate with 20 % high, 60 % normal and 20 % low priority. It is a
// pure function of its arguments.
func buildSchedule(seed uint64, seconds float64) [][]arrival {
	rng := rand.New(rand.NewSource(int64(seed)))
	steps := make([][]arrival, len(rateSteps))
	for i, st := range rateSteps {
		steps[i] = poisson(rng, st.factor*overloadService, st.share*seconds)
	}
	return steps
}

func poisson(rng *rand.Rand, rate, seconds float64) []arrival {
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		prio := faas.PriorityNormal
		switch u := rng.Float64(); {
		case u < 0.2:
			prio = faas.PriorityHigh
		case u >= 0.8:
			prio = faas.PriorityLow
		}
		out = append(out, arrival{time.Duration(t * float64(time.Second)), prio})
	}
	return out
}

// outcome is what happened to one arrival.
type outcome struct {
	prio    faas.Priority
	late    time.Duration // send time minus due time
	lat     time.Duration // completion minus DUE time
	callLat time.Duration // completion minus send time
	shed    bool          // refused with a retryable, hinted overload error
	err     error         // any other failure, including wrong bytes
}

// runStep offers one step's arrivals on schedule from a single pacing
// goroutine over the stack's one multiplexed client, and waits for every
// answer. Request i of the step is numbered firstReq+i.
func runStep(st *stack, arr []arrival, base []byte, firstReq uint64, rec *recorder) []outcome {
	out := make([]outcome, len(arr))
	ctxs := map[faas.Priority]context.Context{}
	for _, p := range []faas.Priority{faas.PriorityLow, faas.PriorityNormal, faas.PriorityHigh} {
		ctxs[p] = faas.WithPriority(context.Background(), p)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		if wait := a.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		wg.Add(1)
		go func(i int, a arrival, sent time.Duration) {
			defer wg.Done()
			req := firstReq + uint64(i)
			p := append([]byte(nil), base...)
			binary.BigEndian.PutUint64(p, req)
			var spanStart int64
			if rec != nil {
				spanStart = rec.now()
			}
			got, err := st.invoke(ctxs[a.prio], 0, p)
			done := time.Since(start)
			if rec != nil {
				rec.add(layerClient, req, spanStart, rec.now())
			}
			o := outcome{prio: a.prio, late: sent - a.due, lat: done - a.due, callLat: done - sent}
			var re *wire.RemoteError
			switch {
			case err == nil && !bytes.Equal(got, p):
				o.err = errors.New("echoed bytes differ from the payload sent")
			case err == nil:
			case errors.As(err, &re) && re.Retryable && re.RetryAfterHint > 0:
				o.shed = true
			default:
				o.err = err
			}
			out[i] = o
		}(i, a, sent)
	}
	wg.Wait()
	return out
}

// stepStats reduces one step's outcomes.
type stepStats struct {
	sent, good, shed, failed int64
	firstErr                 error
	accepted                 []float64 // due-time latency of accepted requests, ms, sorted
	acceptedHigh             []float64 // the high-priority ones among them
	shedCall                 []float64 // caller-observed latency of shed replies, µs, sorted
	late                     []float64 // generator lateness, µs, sorted
}

func reduceStep(outs []outcome) stepStats {
	s := stepStats{sent: int64(len(outs))}
	for _, o := range outs {
		s.late = append(s.late, float64(o.late)/1e3)
		switch {
		case o.err != nil:
			s.failed++
			if s.firstErr == nil {
				s.firstErr = o.err
			}
		case o.shed:
			s.shed++
			s.shedCall = append(s.shedCall, float64(o.callLat)/1e3)
		default:
			ms := float64(o.lat) / 1e6
			s.accepted = append(s.accepted, ms)
			if o.prio == faas.PriorityHigh {
				s.acceptedHigh = append(s.acceptedHigh, ms)
			}
			if o.lat <= overloadLimit {
				s.good++
			}
		}
	}
	sort.Float64s(s.accepted)
	sort.Float64s(s.acceptedHigh)
	sort.Float64s(s.shedCall)
	sort.Float64s(s.late)
	return s
}

func (s stepStats) goodFrac() float64 {
	if s.sent == 0 {
		return 0
	}
	return float64(s.good) / float64(s.sent)
}

func (s stepStats) shedFrac() float64 {
	if s.sent == 0 {
		return 0
	}
	return float64(s.shed) / float64(s.sent)
}

func overloadStackConfig() stackConfig {
	return stackConfig{fn: "work", work: overloadWork, daemons: 1, capacity: overloadCapacity, admission: true, callers: 1}
}

// cycleResult is one pass over the three rate steps.
type cycleResult struct {
	steps     []stepStats
	firstReq  []uint64 // first request number of each step
	attempted int64
	failed    int64
}

// runCycle warms the daemon at the light rate, then offers each step in
// turn, letting the daemon drain between steps.
func runCycle(st *stack, seed uint64, seconds float64, rec *recorder, res *result) cycleResult {
	base := seededPayload(seed, 64)
	warm := poisson(rand.New(rand.NewSource(int64(seed)+1)), rateSteps[stepLight].factor*overloadService, min(warmupSeconds, seconds))
	runStep(st, warm, base, warmReqBase, nil)

	cold0, _ := st.coldStarts()
	var c cycleResult
	next := uint64(0)
	for i, arr := range buildSchedule(seed, seconds) {
		c.firstReq = append(c.firstReq, next)
		s := reduceStep(runStep(st, arr, base, next, rec))
		next += uint64(len(arr))
		c.steps = append(c.steps, s)
		c.attempted += s.sent
		c.failed += s.failed
		if s.firstErr != nil {
			res.problem("step %s: %d of %d requests failed other than by a hinted retryable shed, first: %v", rateSteps[i].name, s.failed, s.sent, s.firstErr)
		}
		if percentile(s.late, 0.99) > float64(disturbedLate)/1e3 {
			res.info["disturbed"] = 1
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.firstReq = append(c.firstReq, next)
	if cold1, _ := st.coldStarts(); cold1 != cold0 {
		res.problem("%d cold starts inside the timed phase: set-up leaked into it", cold1-cold0)
	}
	return c
}

// runOverload is the untraced run of overload-open.
func runOverload(rc runConfig) (*result, error) {
	st, setups, err := timedSetups(overloadStackConfig(), liveSetupReps)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := newResult()
	c := runCycle(st, rc.seed, rc.seconds, nil, res)
	res.attempted, res.failed = c.attempted, c.failed
	over := c.steps[stepOver]
	res.metrics["ops_per_s"] = float64(over.good) / (rateSteps[stepOver].share * rc.seconds)
	res.metrics["op_p50_us"] = percentile(over.accepted, 0.5) * 1e3
	res.metrics["good_frac"] = c.steps[stepBelow].goodFrac()
	res.metrics["setup_s"] = median(setups)
	for i, s := range c.steps {
		res.info["good_frac_"+rateSteps[i].name] = s.goodFrac()
		res.info["accepted_p50_ms_"+rateSteps[i].name] = percentile(s.accepted, 0.5)
		res.info["shed_frac_"+rateSteps[i].name] = s.shedFrac()
	}
	res.info["high_p99_ms_2x"] = percentile(over.acceptedHigh, 0.99)
	res.info["late_p99_us_2x"] = percentile(over.late, 0.99)
	return res, nil
}

// runOverloadTraced is the traced run: one cycle with wrappers around
// Endpoint.InvokeContext and the handler plus a queue-depth sampler, one
// plain cycle for the wrappers' cost, then the codec and policy probes.
// Span-derived figures are taken on the 2x step.
func runOverloadTraced(rc runConfig) (*result, error) {
	res := newTracedResult()
	sc := overloadStackConfig()
	tr := liveTree(false)
	rec := newRecorder(tr)
	tsc := sc
	tsc.rec = rec
	st, err := startStack(tsc)
	if err != nil {
		return nil, err
	}
	ep := st.daemons[0].ep

	depthMax := 0
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if d := ep.QueueDepth(); d > depthMax {
					depthMax = d
				}
			}
		}
	}()

	_, warm0 := st.coldStarts()
	p0 := readProc()
	c := runCycle(st, rc.seed, rc.seconds*0.6, rec, res)
	p1 := readProc()
	close(stopSampler)
	<-samplerDone
	res.attempted, res.failed = c.attempted, c.failed
	over := c.steps[stepOver]
	overDur := rateSteps[stepOver].share * rc.seconds * 0.6

	var spans []span
	for _, s := range rec.all() {
		if s.Req >= c.firstReq[stepOver] && s.Req < c.firstReq[stepOver+1] {
			spans = append(spans, s)
		}
	}
	self := liveSelfTimes(spans, tr, res)
	res.metrics["wire.hop_self_us"] = meanUS(self[layerClient])
	res.metrics["faas.admit_self_us"] = meanUS(self[layerDaemon])
	var execNS []int64
	var waitMS []float64
	for i, d := range self[layerHandler] {
		if d > 0 { // the request reached the handler: it was accepted
			execNS = append(execNS, d)
			waitMS = append(waitMS, float64(self[layerDaemon][i])/1e6)
		}
	}
	sort.Float64s(waitMS)
	res.metrics["faas.exec_self_us"] = meanUS(execNS)
	res.metrics["faas.queue_wait_p50_ms"] = percentile(waitMS, 0.5)
	res.metrics["faas.queue_wait_p99_ms"] = percentile(waitMS, 0.99)
	res.metrics["faas.queue_depth_max"] = float64(depthMax)
	res.metrics["faas.shed_frac"] = over.shedFrac()
	byPrio := ep.ShedByPriority()
	res.metrics["faas.shed_low"] = float64(byPrio[0])
	res.metrics["faas.shed_normal"] = float64(byPrio[1])
	res.metrics["faas.shed_high"] = float64(byPrio[2])
	res.metrics["faas.shed_p50_us"] = percentile(over.shedCall, 0.5)
	res.metrics["faas.slot_limit_end"] = float64(ep.SlotLimit())
	res.metrics["faas.high_p99_ms"] = percentile(over.acceptedHigh, 0.99)
	res.metrics["faas.good_frac_0.5x"] = c.steps[stepLight].goodFrac()
	res.metrics["faas.good_frac_2x"] = over.goodFrac()
	_, warm1 := st.coldStarts()
	res.metrics["faas.warm_hits"] = float64(warm1 - warm0)
	res.metrics["federation.member_share_max"] = 1
	res.metrics["loadgen.late_p99_us"] = percentile(over.late, 0.99)
	res.metrics["loadgen.offered_per_s"] = float64(over.sent) / overDur
	tracedGoodput := float64(over.good) / overDur
	res.metrics["wire.payload_mb_per_s"] = tracedGoodput * 64 / 1e6
	p1.perOp(p0, c.attempted, res)
	err = writeTraceFile(rc, spans, tr, 16)
	st.close()
	if err != nil {
		return nil, err
	}

	pst, err := startStack(sc)
	if err != nil {
		return nil, err
	}
	pc := runCycle(pst, rc.seed, rc.seconds*0.4, nil, res)
	pst.close()
	res.attempted += pc.attempted
	res.failed += pc.failed
	plainGoodput := float64(pc.steps[stepOver].good) / (rateSteps[stepOver].share * rc.seconds * 0.4)
	res.metrics["bench.trace_overhead_frac"] = overheadFrac(tracedGoodput, plainGoodput)
	liveProbes(rc.seed, res)
	return res, nil
}
