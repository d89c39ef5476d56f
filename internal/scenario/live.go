package scenario

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/federation"
	"continuum/internal/metrics"
	"continuum/internal/retry"
	"continuum/internal/trace"
	"continuum/internal/wire"
	"continuum/internal/workload"
)

// This file is the live backend: every scenario node becomes a real
// in-process continuumd (a faas endpoint behind a wire server on a
// loopback TCP listener — the exact composition cmd/continuumd builds
// from flags), a wire.ReliableClient with retries, failover, and
// circuit breakers drives the whole fleet, and the compiled event
// timeline is replayed in wall-clock time: failed nodes drop every
// request (and stop generating load), chaos events install real
// fault.Chaos injectors via Server.SetChaos, link degradation becomes
// injected delay at the endpoints. The claim the e2e gate asserts is
// the chaos-test claim generalized to whole scenarios: zero lost
// requests, no matter what the script does to the fleet.

// The live fleet's shape: each node is an endpoint with liveCapacity
// concurrent container slots, and a scenario of more than liveMaxNodes
// nodes is refused — every node is a real TCP server, so a 1000-node
// stress scenario belongs on the sim backend.
const (
	liveCapacity = 16
	liveMaxNodes = 128
)

// LiveOptions parameterizes the live backend (see Plan.RunLive).
type LiveOptions struct {
	// TimeScale is wall-clock seconds per scenario second and must be
	// positive (1 is real time). CI smokes use small values (e.g. 0.02)
	// to replay a 30-second scenario in under a second; event times,
	// arrival gaps, and chaos phase lengths all scale together.
	TimeScale float64
	// Function is the builtin each request invokes (default "echo",
	// whose response the runner also verifies byte-for-byte).
	Function string
	// Spans, when set, traces every live invocation end to end: the
	// reliable client roots one trace per request, and every fleet node
	// records its server/queue/exec spans into this same store (the whole
	// fleet is in-process, so one ring holds the merged view directly).
	// The ring overwrites under sustained load — size it to the scenario
	// or pull promptly. Nil (the default) keeps the run span-free.
	Spans *trace.SpanStore
	// Router fronts the fleet with an in-process continuum-router: every
	// node registers through a federation.Agent and the scenario's
	// requests flow client → router → fleet, so scripted churn (leave /
	// join events, failures) exercises the registry's suspect/expiry
	// machinery instead of a static address list.
	Router bool
	// Policy names the router's routing policy, one of
	// federation.PolicyNames (default hash). RunLive rejects it when
	// Router is off.
	Policy string
	// Heartbeat is the federation heartbeat interval when Router is set
	// (default 100ms — scaled scenarios replay in wall-clock time, so the
	// cadence must be fast enough for churn to be noticed mid-run).
	Heartbeat time.Duration
}

func (o LiveOptions) function() string {
	if o.Function == "" {
		return "echo"
	}
	return o.Function
}

func (o LiveOptions) heartbeat() time.Duration {
	if o.Heartbeat <= 0 {
		return 100 * time.Millisecond
	}
	return o.Heartbeat
}

// liveNode is one in-process continuumd: endpoint, server, listener
// address, and whether the node is currently scripted as failed (a
// failed origin generates no traffic, matching the sim's DropSubmit) or
// drained (cordoned and generating nothing — the maintenance shape).
type liveNode struct {
	name    string
	addr    string
	ep      *faas.Endpoint
	srv     *wire.Server
	paused  atomic.Bool
	drained atomic.Bool

	// Router mode: the node's registration agent, plus the factory a
	// scripted join uses to re-register after a leave (agents are
	// one-shot — Leave closes them). Both are touched only by RunLive's
	// setup and the single replay goroutine, never concurrently.
	agent    *federation.Agent
	newAgent func() *federation.Agent

	// The node's scripted fault state, touched only by the replay
	// goroutine: whether it is failed, the chaos injector of an open
	// chaos window, and the delay injector of a degraded link (nil =
	// none). inject derives the server's one injector from them.
	failed    bool
	chaos     *fault.Chaos
	linkDelay *fault.Chaos
}

// inject installs the injector the node's scripted state calls for:
// failed over chaos over link delay, so a chaos window ending on a
// failed node leaves it failed, and a repair inside a chaos window
// brings the chaos back, as on the sim backend. The server has one
// injector, so a node with both chaos and a degraded link sees only the
// chaos; no shipped scenario puts both on one node, and that overlap
// stays approximate.
func (ln *liveNode) inject() {
	switch {
	case ln.failed:
		ln.srv.SetChaos(fault.NewChaos(fault.ChaosSpec{DropProb: 1, Seed: 1}))
	case ln.chaos != nil:
		ln.srv.SetChaos(ln.chaos)
	default:
		ln.srv.SetChaos(ln.linkDelay)
	}
}

// startLiveNode boots one node of the fleet on a loopback listener.
func startLiveNode(name string, spans *trace.SpanStore) (*liveNode, error) {
	reg := faas.BuiltinRegistry()
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: name, Capacity: liveCapacity, WarmTTL: time.Minute,
		PreemptAbandoned: true,
	}, reg)
	ep.SetSpans(spans)
	srv := &wire.Server{
		Invoker: ep, Batcher: ep, Registry: reg,
		Endpoints: []*faas.Endpoint{ep},
		Name:      name, Spans: spans,
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ep.Close()
		return nil, fmt.Errorf("scenario: live node %q: %w", name, err)
	}
	go srv.Serve(lis)
	return &liveNode{name: name, addr: lis.Addr().String(), ep: ep, srv: srv}, nil
}

// RunLive executes the plan against an in-process continuumd fleet,
// replaying the compiled event timeline in scaled wall-clock time. It
// supports stream scenarios only — a DAG has no live execution path —
// and reports Lost > 0 if any invocation failed through the reliable
// client (the e2e gate asserts zero).
func (p *Plan) RunLive(opts LiveOptions) (*Report, error) {
	s := p.Scenario
	if opts.Policy != "" && !opts.Router {
		return nil, fmt.Errorf("scenario %q: router policy %q set without the router", s.Name, opts.Policy)
	}
	policy, err := federation.PolicyByName(opts.Policy)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Stream == nil {
		return nil, fmt.Errorf("scenario %q: the live backend replays stream scenarios only (DAG workloads are simulator-only)", s.Name)
	}
	if len(s.Nodes) > liveMaxNodes {
		return nil, fmt.Errorf("scenario %q: %d nodes exceeds the live fleet cap %d; use the sim backend for fleets this large", s.Name, len(s.Nodes), liveMaxNodes)
	}
	if opts.TimeScale <= 0 {
		return nil, fmt.Errorf("scenario %q: time scale %v must be positive", s.Name, opts.TimeScale)
	}
	scale, fn := opts.TimeScale, opts.function()

	fleet := make(map[string]*liveNode, len(s.Nodes))
	var addrs []string
	var rt *federation.Router
	var rtSrv *wire.Server
	shutdown := func() {
		for _, ln := range fleet {
			if ln.agent != nil {
				ln.agent.Leave(false)
			}
			ln.srv.Close()
			ln.ep.Close()
		}
		if rtSrv != nil {
			rtSrv.Close()
		}
		if rt != nil {
			rt.Close()
		}
	}
	for _, nj := range s.Nodes {
		ln, err := startLiveNode(nj.Name, opts.Spans)
		if err != nil {
			shutdown()
			return nil, err
		}
		fleet[nj.Name] = ln
		addrs = append(addrs, ln.addr)
	}
	defer shutdown()

	// Router mode: boot an in-process continuum-router, register every
	// node through a federation agent, and point the scenario's client at
	// the router alone — requests flow client → router → fleet, so the
	// script's churn exercises live membership instead of a fixed list.
	if opts.Router {
		rt, err = federation.NewRouter(federation.RouterConfig{
			Registry: federation.Config{HeartbeatInterval: opts.heartbeat()},
			Policy:   policy,
			Client: wire.ReliableConfig{
				Retry:       retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
				Breaker:     retry.BreakerConfig{FailureThreshold: 3, Cooldown: 50 * time.Millisecond},
				CallTimeout: 2 * time.Second,
			},
			Spans: opts.Spans,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %q: router: %w", s.Name, err)
		}
		rtSrv = &wire.Server{Invoker: rt, Ops: rt, Name: "router", Spans: opts.Spans}
		rlis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("scenario %q: router listener: %w", s.Name, err)
		}
		go rtSrv.Serve(rlis)
		routerAddr := rlis.Addr().String()
		for _, ln := range fleet {
			ln := ln
			ln.newAgent = func() *federation.Agent {
				return federation.NewAgent(federation.AgentConfig{
					RouterAddr: routerAddr,
					Name:       ln.name,
					Advertise:  ln.addr,
					Endpoint:   ln.ep,
				})
			}
			ln.agent = ln.newAgent()
			ln.agent.Start()
		}
		// Wait for the full fleet to register before load starts: the
		// scenario's arrival schedule begins at t=0, and a half-joined
		// fleet would skew the experiment (not its correctness — routing
		// an empty set is a retryable error).
		deadline := time.Now().Add(5 * time.Second)
		for rt.Registry().Len() < len(fleet) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("scenario %q: only %d/%d nodes registered with the router", s.Name, rt.Registry().Len(), len(fleet))
			}
			time.Sleep(time.Millisecond)
		}
		addrs = []string{routerAddr}
	}

	m := metrics.NewRegistry()
	rc, err := wire.NewReliableClient(wire.ReliableConfig{
		Addrs: addrs,
		Retry: retry.Policy{
			MaxAttempts: 12,
			BaseDelay:   time.Millisecond,
			MaxDelay:    20 * time.Millisecond,
		},
		Breaker: retry.BreakerConfig{
			FailureThreshold: 3,
			Cooldown:         50 * time.Millisecond,
		},
		CallTimeout: 2 * time.Second,
		Metrics:     m,
		Spans:       opts.Spans,
		Service:     "scenario",
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: live client: %w", s.Name, err)
	}
	defer rc.Close()

	start := time.Now()
	wall := func(at float64) time.Time {
		return start.Add(time.Duration(at * scale * float64(time.Second)))
	}

	// Event replay: one goroutine walks the compiled timeline in order.
	stopReplay := make(chan struct{})
	var replayDone sync.WaitGroup
	replayDone.Add(1)
	go func() {
		defer replayDone.Done()
		replayOps(fleet, p.ops, scale, wall, stopReplay)
	}()

	// Load: one generator per origin, submitting at the origin's arrival
	// times from the sim backend's own streams and function, scaled to
	// wall time. Each invocation runs in its own goroutine so a slow
	// retry storm never delays subsequent arrivals.
	lat := metrics.NewHistogram()
	var completed, lost, suppressed atomic.Int64
	_, work := p.streams()
	var gens, calls sync.WaitGroup
	for i, origin := range s.Stream.Origins {
		ln := fleet[origin]
		// The origin's scripted priority rides every request's context, so
		// it crosses the wire to the fleet's admission controllers exactly
		// as a real client's would.
		ctx := context.Background()
		if prio := faas.Priority(s.Stream.Priorities[origin]); prio != faas.PriorityNormal {
			ctx = faas.WithPriority(ctx, prio)
		}
		gens.Add(1)
		go func(ln *liveNode, rng *workload.RNG, ctx context.Context) {
			defer gens.Done()
			seq := 0
			p.arrivals(rng, func(t float64) {
				time.Sleep(time.Until(wall(t)))
				if ln.paused.Load() || ln.drained.Load() {
					suppressed.Add(1) // a down or drained origin generates nothing
					return
				}
				seq++
				payload := fmt.Sprintf("%s/%s#%d", s.Name, ln.name, seq)
				calls.Add(1)
				go func() {
					defer calls.Done()
					t0 := time.Now()
					out, err := rc.InvokeContext(ctx, fn, []byte(payload))
					if err != nil || (fn == "echo" && string(out) != payload) {
						lost.Add(1)
						return
					}
					completed.Add(1)
					lat.Add(time.Since(t0).Seconds())
				}()
			})
		}(ln, work[1+i], ctx)
	}
	gens.Wait()
	calls.Wait()
	close(stopReplay)
	replayDone.Wait()

	perNode := make(map[string]int64, len(fleet))
	for name, ln := range fleet {
		perNode[name] = ln.ep.Invocations()
	}
	kind := "live/"
	if opts.Router {
		kind = "live+router/"
	}
	return &Report{
		Scenario:   s.Name,
		Backend:    "live",
		Workload:   kind + fn,
		Completed:  completed.Load(),
		Lost:       lost.Load(),
		Retries:    int64(m.Counter("wire_client_retries_total").Value()),
		Suppressed: suppressed.Load(),
		Makespan:   time.Since(start).Seconds(),
		MeanLat:    lat.Mean(),
		P99Lat:     lat.P99(),
		PerNode:    perNode,
	}, nil
}

// replayOps applies the compiled timeline to the fleet at scaled
// wall-clock times. Node failure is modeled as a drop-everything chaos
// injector plus a paused generator — the TCP listener stays up, exactly
// like a wedged-but-reachable endpoint, which is the harder failure for
// a client to survive (the chaos e2e kills the listener instead; both
// paths must end in zero losses).
func replayOps(fleet map[string]*liveNode, ops []op, scale float64,
	wall func(float64) time.Time, stop <-chan struct{}) {
	for _, o := range ops {
		timer := time.NewTimer(time.Until(wall(o.at)))
		select {
		case <-stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		switch o.kind {
		case opFail:
			ln := fleet[o.node]
			ln.paused.Store(true)
			ln.failed = true
			ln.inject()
		case opRepair:
			ln := fleet[o.node]
			ln.failed = false
			ln.inject()
			ln.paused.Store(false)
		case opChaosOn:
			ln := fleet[o.node]
			ln.chaos = fault.NewChaos(scaleChaos(o.chaos, scale))
			ln.inject()
		case opChaosOff:
			ln := fleet[o.node]
			ln.chaos = nil
			ln.inject()
		case opCordon:
			// The real graceful hold: the endpoint rejects new work with
			// ErrCordoned (retryable, so the client fails over) while
			// in-flight invocations finish. Drain also quiets the node's
			// own generator, matching the sim's DropSubmit.
			ln := fleet[o.node]
			ln.ep.SetCordon(true)
			if o.drain {
				ln.drained.Store(true)
			}
		case opUncordon:
			ln := fleet[o.node]
			ln.ep.SetCordon(false)
			ln.drained.Store(false)
		case opLeave:
			// Graceful federation departure: quiet the generator, cordon
			// (in-flight work finishes, new work is rejected retryably),
			// and — router-fronted — announce a drain-deregister so the
			// router stops preferring this node before its breaker ever
			// has to learn the hard way.
			ln := fleet[o.node]
			ln.drained.Store(true)
			ln.ep.SetCordon(true)
			if ln.agent != nil {
				ln.agent.Leave(true)
				ln.agent = nil
			}
		case opJoin:
			ln := fleet[o.node]
			ln.ep.SetCordon(false)
			ln.drained.Store(false)
			ln.paused.Store(false)
			if ln.agent == nil && ln.newAgent != nil {
				// Re-register with a fresh agent (and a fresh generation —
				// the router retired the old one at the leave).
				ln.agent = ln.newAgent()
				ln.agent.Start()
			}
		case opLink:
			// Approximation: a degraded link becomes injected delay at both
			// endpoint servers — the wire has no simulated topology to slow
			// down. The added delay is the extra one-way latency the sim
			// backend would see on that link.
			extra := o.link.Latency * (o.factor - 1)
			for _, name := range []string{o.link.A, o.link.B} {
				ln := fleet[name]
				ln.linkDelay = nil
				if o.factor != 1 && extra > 0 {
					ln.linkDelay = fault.NewChaos(fault.ChaosSpec{
						DelayProb: 1,
						DelayMean: time.Duration(extra * scale * float64(time.Second)),
						Seed:      1,
					})
				}
				ln.inject()
			}
		case opWorkload:
			// Already compiled into the generators' phase schedule.
		}
	}
}

// scaleChaos converts a chaos spec from scenario time to wall time:
// phase lengths and delay means stretch by the time scale; per-request
// probabilities and the seed are time-free and pass through.
func scaleChaos(spec fault.ChaosSpec, scale float64) fault.ChaosSpec {
	spec.MeanUp *= scale
	spec.MeanDown *= scale
	spec.DelayMean = time.Duration(float64(spec.DelayMean) * scale)
	return spec
}
