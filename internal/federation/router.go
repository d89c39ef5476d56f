package federation

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"continuum/internal/metrics"
	"continuum/internal/trace"
	"continuum/internal/wire"
)

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Registry configures the membership state machine (zero value →
	// registry defaults). Its OnChange hook is taken by the router.
	Registry Config
	// Policy orders routable members per invocation (nil = HashPolicy).
	Policy Policy
	// Client parameterizes the router's outbound ReliableClient — retry
	// policy, breakers, hedging, retry budget, call timeout, pool size.
	// Addrs and Dynamic are overwritten: the registry owns membership.
	Client wire.ReliableConfig
	// Metrics, when set, receives the federation_* counters and gauges
	// (see the package's metric inventory in docs/OPERATIONS.md) in
	// addition to the wire client metrics Client.Metrics would carry.
	Metrics *metrics.Registry
	// Spans, when set, records the router's half of every traced
	// invocation (service "router": root invoke span, attempt spans per
	// retry/hedge arm) so a pulled trace shows the route decision chain.
	Spans *trace.SpanStore
	// Logger, when set, logs membership transitions.
	Logger *slog.Logger
}

// Router is the data-plane half of a continuum-router process: it
// serves the federation control ops as a wire.OpsHandler and routes
// invocations across the registered daemons as a faas.ContextInvoker —
// plug it into a wire.Server as both Ops and Invoker and the one
// listener speaks the whole protocol. Routing composes the policy's
// preference order with wire.ReliableClient, so endpoint failures hit
// the same retry/breaker/hedge machinery as any other reliable call.
type Router struct {
	reg    *Registry
	policy Policy
	rc     *wire.ReliableClient
	log    *slog.Logger

	stop chan struct{}
	done chan struct{}

	routes       atomic.Int64
	routeErrs    atomic.Int64
	membersG     *metrics.Gauge   // federation_members, nil without Metrics
	routableG    *metrics.Gauge   // federation_members_routable
	registersC   *metrics.Counter // federation_registers_total
	heartbeatsC  *metrics.Counter // federation_heartbeats_total
	deregistersC *metrics.Counter // federation_deregisters_total
	expiredC     *metrics.Counter // federation_expired_total
	routesC      *metrics.Counter // federation_routes_total
	routeErrsC   *metrics.Counter // federation_route_errors_total
}

// NewRouter builds a router and starts its expiry sweeper. Close stops
// it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	rt := &Router{
		policy: cfg.Policy,
		log:    cfg.Logger,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if rt.policy == nil {
		rt.policy = HashPolicy{}
	}
	if cfg.Metrics != nil {
		rt.membersG = cfg.Metrics.Gauge("federation_members")
		rt.routableG = cfg.Metrics.Gauge("federation_members_routable")
		rt.registersC = cfg.Metrics.Counter("federation_registers_total")
		rt.heartbeatsC = cfg.Metrics.Counter("federation_heartbeats_total")
		rt.deregistersC = cfg.Metrics.Counter("federation_deregisters_total")
		rt.expiredC = cfg.Metrics.Counter("federation_expired_total")
		rt.routesC = cfg.Metrics.Counter("federation_routes_total")
		rt.routeErrsC = cfg.Metrics.Counter("federation_route_errors_total")
	}

	regCfg := cfg.Registry
	regCfg.OnChange = rt.sync
	rt.reg = NewRegistry(regCfg)

	ccfg := cfg.Client
	ccfg.Addrs = nil
	ccfg.Dynamic = true
	if ccfg.Service == "" {
		ccfg.Service = "router"
	}
	if ccfg.Spans == nil {
		ccfg.Spans = cfg.Spans
	}
	if ccfg.Metrics == nil {
		ccfg.Metrics = cfg.Metrics
	}
	rc, err := wire.NewReliableClient(ccfg)
	if err != nil {
		return nil, err
	}
	rt.rc = rc

	go rt.sweepLoop()
	return rt, nil
}

// Registry exposes the membership state machine (tests and continuumd's
// in-process mode reach it directly).
func (rt *Router) Registry() *Registry { return rt.reg }

// sweepLoop expires silent members on a timer, so deaths are noticed
// within the expiry horizon even when no heartbeat arrives to trigger
// the registry's lazy sweep.
func (rt *Router) sweepLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.reg.HeartbeatInterval())
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.reg.Sweep()
		}
	}
}

// Close stops the sweeper and closes the outbound connection pools.
func (rt *Router) Close() error {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
		<-rt.done
	}
	return rt.rc.Close()
}

// sync reconciles the reliable client's endpoint set (and the
// membership gauges) with the registry. Wired as the registry's
// OnChange hook, so every membership mutation — register, drain,
// leave, expiry — lands in the routing set immediately.
func (rt *Router) sync() {
	addrs := rt.reg.MemberAddrs()
	before := len(rt.rc.EndpointAddrs())
	rt.rc.SetEndpoints(addrs)
	if rt.membersG != nil {
		rt.membersG.Set(float64(len(addrs)))
		rt.routableG.Set(float64(len(rt.reg.Routable())))
	}
	if rt.expiredC != nil && len(addrs) < before {
		rt.expiredC.Add(int64(before - len(addrs)))
	}
}

// HandleOp implements wire.OpsHandler: the register / heartbeat /
// deregister / endpoints control ops, plus list forwarded to the fleet.
// Everything else falls through to the wire server's built-in dispatch
// (invoke arrives at InvokeContext via the server's Invoker path, which
// keeps span and priority threading intact).
func (rt *Router) HandleOp(req *wire.Request) (*wire.Response, bool) {
	switch req.Op {
	case wire.OpRegister:
		if req.Member == nil {
			return &wire.Response{Error: "federation: register without member body"}, true
		}
		gen, err := rt.reg.Register(*req.Member)
		if err != nil {
			return &wire.Response{Error: err.Error()}, true
		}
		if rt.registersC != nil {
			rt.registersC.Inc()
		}
		if rt.log != nil {
			rt.log.Info("member registered", "member", req.Member.Name, "addr", req.Member.Addr, "gen", gen)
		}
		return &wire.Response{
			OK:          true,
			Generation:  gen,
			HeartbeatMS: rt.reg.HeartbeatInterval().Milliseconds(),
		}, true
	case wire.OpHeartbeat:
		if req.Member == nil {
			return &wire.Response{Error: "federation: heartbeat without member body"}, true
		}
		if err := rt.reg.Heartbeat(*req.Member); err != nil {
			return &wire.Response{Error: err.Error()}, true
		}
		if rt.heartbeatsC != nil {
			rt.heartbeatsC.Inc()
		}
		return &wire.Response{OK: true}, true
	case wire.OpDeregister:
		if req.Member == nil {
			return &wire.Response{Error: "federation: deregister without member body"}, true
		}
		if err := rt.reg.Deregister(req.Member.Name, req.Member.Generation, req.Member.Draining); err != nil {
			return &wire.Response{Error: err.Error()}, true
		}
		if rt.deregistersC != nil {
			rt.deregistersC.Inc()
		}
		if rt.log != nil {
			rt.log.Info("member left", "member", req.Member.Name, "drain", req.Member.Draining)
		}
		return &wire.Response{OK: true}, true
	case wire.OpEndpoints:
		return &wire.Response{OK: true, Members: rt.reg.Snapshot()}, true
	case wire.OpList:
		// Forward to the fleet: the router serves no functions itself,
		// but any member can answer what the federation serves.
		names, err := rt.rc.List()
		if err != nil {
			return &wire.Response{Error: err.Error(), Retryable: wire.IsRetryable(err)}, true
		}
		return &wire.Response{OK: true, Names: names}, true
	}
	return nil, false
}

// Invoke implements faas.Invoker.
func (rt *Router) Invoke(fn string, payload []byte) ([]byte, error) {
	return rt.InvokeContext(context.Background(), fn, payload)
}

// InvokeContext implements faas.ContextInvoker: it orders the routable
// members with the configured policy and rides the preference list
// through the reliable client — retry walks down the preferences, an
// exhausted list falls back to round-robin over every member, breakers
// rout around repeat offenders, and hedging (when configured) races a
// second member against a slow first choice. It keeps neither the
// payload nor the result, so behind a wire.Server a clean route lets
// the server reuse the buffers both arrived in (wire's relay contract).
func (rt *Router) InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	prefer := rt.policy.Order(fn, payload, rt.reg.Routable())
	out, err := rt.rc.InvokeRouted(ctx, fn, payload, prefer)
	rt.routes.Add(1)
	if rt.routesC != nil {
		rt.routesC.Inc()
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		rt.routeErrs.Add(1)
		if rt.routeErrsC != nil {
			rt.routeErrsC.Inc()
		}
	}
	return out, err
}

// RouteStats returns how many invocations the router has routed and how
// many ultimately failed after retries.
func (rt *Router) RouteStats() (routes, errs int64) {
	return rt.routes.Load(), rt.routeErrs.Load()
}
