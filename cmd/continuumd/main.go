// Command continuumd is a function-serving endpoint daemon: the real
// (non-simulated) mode of the reproduction's funcX analogue. It registers
// a set of built-in demonstration functions and serves the wire protocol
// over TCP. Run several instances on different ports to form a federation
// and drive them with continuumctl.
//
// Usage:
//
//	continuumd -listen 127.0.0.1:9090 -capacity 8 -cold 2ms
//	continuumd -listen 127.0.0.1:9090 -metrics-addr 127.0.0.1:9091
//	continuumd -listen 127.0.0.1:9090 -chaos 'err=0.1,delay=20ms,delayp=0.3'
//	continuumd -listen 127.0.0.1:9090 -router 127.0.0.1:9080
//
// With -router the daemon joins a continuum-router federation: it
// registers over the wire protocol, heartbeats its live load (queue
// depth, in-flight, slot limit, cordon state), re-registers whenever
// the router stops recognizing it, and on shutdown announces a
// graceful drain — the router stops routing new work here immediately
// while in-flight requests finish. -advertise overrides the address
// the router dials back (needed when -listen binds a wildcard).
//
// With -metrics-addr the daemon serves Prometheus text exposition on
// /metrics (per-function latency histograms, cold/warm splits, in-flight
// gauges, per-op wire counters), a liveness probe on /healthz, and the
// span store as JSON on /debug/traces (?trace=<id> filters to one
// trace). -pprof additionally mounts net/http/pprof on the same mux so
// live profiling needs no extra port.
//
// Tracing is always on (bounded by -trace-buf spans of ring memory):
// requests carrying wire trace context get per-hop spans — server,
// queue-wait, exec — recorded locally and pulled by `continuumctl
// trace`, which assembles one cross-daemon tree per trace ID. Untraced
// requests record nothing.
//
// Each accepted connection is multiplexed: requests carrying IDs are
// dispatched to a per-connection worker pool and answered out of order
// as they complete, so one client connection can keep many invocations
// in flight. -workers bounds that pool (ID-less peers stay strictly
// serial).
//
// With -max-queue the daemon runs priority-classed admission control in
// front of its container slots: admitted requests wait in bounded
// per-priority queues (low sheds first), the effective bound adapts by
// AIMD on observed queue wait, and shed requests are rejected
// immediately with a retryable overload error carrying a Retry-After
// hint that reliable clients honor as a backoff floor. The worker pool
// also breathes between -min-slots and -capacity with the backlog.
// Request priority rides the wire from the client (continuumctl
// -priority, or faas.WithPriority in code).
//
//	continuumd -listen 127.0.0.1:9090 -capacity 8 -max-queue 64
//	continuumd -listen 127.0.0.1:9090 -max-queue 64 -target-queue-wait 10ms -min-slots 2
//
// With -chaos the daemon injects faults into its own wire path — dropped
// connections, injected retryable errors, latency spikes, and whole down
// phases (see fault.ParseChaos for the spec grammar) — turning any
// federation member into a fault injector for reliability experiments.
//
// With -hedge the endpoint preempts cancelled invocations: when a hedged
// client abandons the losing arm of a request race, the abandoned
// invocation's capacity slot frees immediately instead of when its
// handler returns, so lost hedge races don't shrink effective capacity.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// lets in-flight requests finish (bounded by -grace), then flushes a
// final metrics snapshot before exiting.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	_ "net/http/pprof" // wire.ServeMetrics forwards /debug/pprof/ to these handlers under -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/federation"
	"continuum/internal/metrics"
	"continuum/internal/trace"
	"continuum/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9090", "address to serve on")
	name := flag.String("name", "", "endpoint name (defaults to the listen address)")
	capacity := flag.Int("capacity", 8, "max concurrent containers")
	cold := flag.Duration("cold", 2*time.Millisecond, "cold-start provisioning delay")
	warmTTL := flag.Duration("warm-ttl", time.Minute, "idle warm-container lifetime")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (empty = off)")
	verbose := flag.Bool("verbose", false, "log one structured line per request")
	queueWait := flag.Duration("queue-wait", 0, "max wait for a free container slot before rejecting with a retryable overload error (0 = wait forever)")
	maxQueue := flag.Int("max-queue", 0, "enable priority-classed admission control with this hard queue bound (0 = off; low priority sheds first, shed responses carry Retry-After)")
	targetQueueWait := flag.Duration("target-queue-wait", 0, "queue-wait target the adaptive admission bound steers toward by AIMD (0 = 20ms; needs -max-queue)")
	minSlots := flag.Int("min-slots", 0, "elastic worker-pool floor under admission control (0 = capacity/4; needs -max-queue)")
	retryAfterFloor := flag.Duration("retry-after-floor", 0, "minimum Retry-After hint attached to shed responses (0 = 5ms; needs -max-queue)")
	execTimeout := flag.Duration("exec-timeout", 0, "per-invocation execution deadline (0 = none)")
	grace := flag.Duration("grace", 10*time.Second, "in-flight drain bound for graceful shutdown on SIGINT/SIGTERM")
	chaos := flag.String("chaos", "", "inject wire-level faults, e.g. 'drop=0.05,err=0.1,delay=20ms,delayp=0.3,up=10s,down=500ms,seed=1' (empty = off)")
	workers := flag.Int("workers", 0, "max concurrent requests per connection for multiplexing clients (0 = default)")
	hedge := flag.Bool("hedge", false, "free the capacity slot of a cancelled invocation immediately (server-side support for hedged clients: the losing hedge arm stops occupying a container slot)")
	traceBuf := flag.Int("trace-buf", 0, "span ring-buffer capacity for distributed tracing (0 = default 4096)")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof debug handlers on the -metrics-addr mux")
	router := flag.String("router", "", "continuum-router address to register with; the daemon joins the federation and heartbeats its live load (empty = standalone)")
	advertise := flag.String("advertise", "", "address the router should dial to reach this daemon (defaults to -listen; set it when -listen binds a wildcard or NATed address)")
	flag.Parse()

	if *name == "" {
		*name = *listen
	}
	reg := faas.BuiltinRegistry()
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name:             *name,
		Capacity:         *capacity,
		ColdStart:        *cold,
		WarmTTL:          *warmTTL,
		QueueWait:        *queueWait,
		ExecTimeout:      *execTimeout,
		PreemptAbandoned: *hedge,
		Admission: faas.AdmissionConfig{
			Enabled:         *maxQueue > 0,
			MaxQueue:        *maxQueue,
			TargetQueueWait: *targetQueueWait,
			MinSlots:        *minSlots,
			RetryAfterFloor: *retryAfterFloor,
		},
	}, reg)
	if *maxQueue > 0 {
		fmt.Printf("continuumd: admission control enabled (max queue %d)\n", *maxQueue)
	}

	// One span store for the whole daemon: the wire server's request
	// spans and the endpoint's queue/exec spans land together, so one
	// pull (OpTrace or /debug/traces) returns this process's entire view
	// of any trace.
	spans := trace.NewSpanStore(*traceBuf)
	ep.SetSpans(spans)

	srv := &wire.Server{
		Invoker:   ep,
		Batcher:   ep,
		Registry:  reg,
		Endpoints: []*faas.Endpoint{ep},
		Workers:   *workers,
		Name:      *name,
		Spans:     spans,
	}
	if *verbose {
		srv.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if *chaos != "" {
		spec, err := fault.ParseChaos(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "continuumd: -chaos:", err)
			os.Exit(2)
		}
		srv.SetChaos(fault.NewChaos(spec))
		fmt.Printf("continuumd: chaos enabled (%s)\n", *chaos)
	}
	var m *metrics.Registry
	if *metricsAddr != "" {
		m = metrics.NewRegistry()
		ep.SetMetrics(m)
		srv.Metrics = m
		go func() {
			if err := wire.ServeMetrics(*metricsAddr, m, spans, *pprof); err != nil {
				fmt.Fprintln(os.Stderr, "continuumd: metrics server:", err)
			}
		}()
		fmt.Printf("continuumd: metrics on http://%s/metrics\n", *metricsAddr)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "continuumd:", err)
		os.Exit(1)
	}
	fmt.Printf("continuumd: endpoint %q serving %d functions on %s (capacity %d, cold start %v)\n",
		*name, len(reg.Names()), lis.Addr(), *capacity, *cold)

	// Federated mode: join the router once the listener is serving, so
	// the advertised address is live before the router can route to it.
	var agent *federation.Agent
	if *router != "" {
		adv := *advertise
		if adv == "" {
			adv = lis.Addr().String()
		}
		agent = federation.NewAgent(federation.AgentConfig{
			RouterAddr: *router,
			Name:       *name,
			Advertise:  adv,
			Endpoint:   ep,
			Functions:  reg.Names(),
			Logger:     srv.Logger,
		})
		agent.Start()
		fmt.Printf("continuumd: joining federation at %s (advertising %s)\n", *router, adv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		s := <-sig
		fmt.Printf("continuumd: %v: draining in-flight requests (grace %v)\n", s, *grace)
		if agent != nil {
			// Announce the drain BEFORE shutting the listener down: the
			// router stops routing new work here immediately while the
			// connections carrying in-flight work stay up until it
			// finishes.
			ep.SetCordon(true)
			if err := agent.Leave(true); err != nil {
				fmt.Fprintln(os.Stderr, "continuumd: federation drain announce:", err)
			}
		}
		srv.Shutdown(*grace) // Serve returns nil once the drain completes
		close(drained)
	}()

	if err := srv.Serve(lis); err != nil {
		fmt.Fprintln(os.Stderr, "continuumd:", err)
		os.Exit(1)
	}
	<-drained
	ep.Close()
	if m != nil {
		// Flush the final counters so a scrape gap at exit loses nothing.
		fmt.Println("continuumd: final metrics snapshot:")
		m.WritePrometheus(os.Stdout)
	}
	fmt.Println("continuumd: drained, exiting")
}
