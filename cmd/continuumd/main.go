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
// Each accepted connection is multiplexed: requests are dispatched to a
// per-connection worker pool and answered out of order as they
// complete, so one client connection can keep many invocations in
// flight. -workers bounds that pool.
//
// Requests wait for one of -capacity container slots in one FIFO queue,
// whose depth the heartbeat and /metrics report; -queue-wait bounds the
// wait. With -max-queue the daemon runs priority-classed admission
// control instead: admitted requests wait in bounded per-priority
// queues (low sheds first), the effective bound adapts by AIMD on
// observed queue wait, and shed requests are rejected immediately with
// a retryable overload error carrying a Retry-After hint that reliable
// clients honor as a backoff floor. The worker pool also breathes
// between -min-slots and -capacity with the backlog. Request priority
// rides the wire from the client (continuumctl -priority, or
// faas.WithPriority in code).
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
	"errors"
	"flag"
	"fmt"
	"io"
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

// config is what the command line sets: the endpoint, its fault
// injection, and how the process serves, traces and federates it.
type config struct {
	listen, metricsAddr string
	endpoint            faas.EndpointConfig
	chaos               string          // the -chaos flag as given ("" = off)
	chaosSpec           fault.ChaosSpec // chaos, parsed
	workers, traceBuf   int
	grace               time.Duration
	verbose, pprof      bool
	router, advertise   string
}

// parseFlags parses the command line (without the program name) and
// reports what is wrong with it, or the -h usage, on errOut. Any error
// means the command line is bad: main exits 2 (0 for -h).
func parseFlags(args []string, errOut io.Writer) (config, error) {
	fs := flag.NewFlagSet("continuumd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var c config
	ep := &c.endpoint
	fs.StringVar(&c.listen, "listen", "127.0.0.1:9090", "address to serve on")
	fs.StringVar(&ep.Name, "name", "", "endpoint name (defaults to the listen address)")
	fs.IntVar(&ep.Capacity, "capacity", 8, "max concurrent containers")
	fs.DurationVar(&ep.ColdStart, "cold", 2*time.Millisecond, "cold-start provisioning delay")
	fs.DurationVar(&ep.WarmTTL, "warm-ttl", time.Minute, "idle warm-container lifetime")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (empty = off)")
	fs.BoolVar(&c.verbose, "verbose", false, "log one structured line per request")
	fs.DurationVar(&ep.QueueWait, "queue-wait", 0, "max wait for a free container slot before rejecting with a retryable overload error (0 = wait forever)")
	fs.IntVar(&ep.Admission.MaxQueue, "max-queue", 0, "enable priority-classed admission control with this hard queue bound (0 = off; low priority sheds first, shed responses carry Retry-After)")
	fs.DurationVar(&ep.Admission.TargetQueueWait, "target-queue-wait", 0, "queue-wait target the adaptive admission bound steers toward by AIMD (0 = 20ms; needs -max-queue)")
	fs.IntVar(&ep.Admission.MinSlots, "min-slots", 0, "elastic worker-pool floor under admission control (0 = capacity/4; needs -max-queue)")
	fs.DurationVar(&ep.Admission.RetryAfterFloor, "retry-after-floor", 0, "minimum Retry-After hint attached to shed responses (0 = 5ms; needs -max-queue)")
	fs.DurationVar(&ep.ExecTimeout, "exec-timeout", 0, "per-invocation execution deadline (0 = none)")
	fs.DurationVar(&c.grace, "grace", 10*time.Second, "in-flight drain bound for graceful shutdown on SIGINT/SIGTERM")
	fs.StringVar(&c.chaos, "chaos", "", "inject wire-level faults, e.g. 'drop=0.05,err=0.1,delay=20ms,delayp=0.3,up=10s,down=500ms,seed=1' (empty = off)")
	fs.IntVar(&c.workers, "workers", 0, "max concurrent requests per connection for multiplexing clients (0 = default)")
	fs.BoolVar(&ep.PreemptAbandoned, "hedge", false, "free the capacity slot of a cancelled invocation immediately (server-side support for hedged clients: the losing hedge arm stops occupying a container slot)")
	fs.IntVar(&c.traceBuf, "trace-buf", 0, "span ring-buffer capacity for distributed tracing (0 = default 4096)")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof debug handlers on the -metrics-addr mux")
	fs.StringVar(&c.router, "router", "", "continuum-router address to register with; the daemon joins the federation and heartbeats its live load (empty = standalone)")
	fs.StringVar(&c.advertise, "advertise", "", "address the router should dial to reach this daemon (defaults to -listen; set it when -listen binds a wildcard or NATed address)")
	if err := fs.Parse(args); err != nil {
		return c, err // fs reported it
	}
	if ep.Name == "" {
		ep.Name = c.listen
	}
	ep.Admission.Enabled = ep.Admission.MaxQueue > 0
	if c.chaos != "" {
		spec, err := fault.ParseChaos(c.chaos)
		if err != nil {
			fmt.Fprintln(errOut, "continuumd: -chaos:", err)
			return c, err
		}
		c.chaosSpec = spec
	}
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	name := c.endpoint.Name
	reg := faas.BuiltinRegistry()
	ep := faas.NewEndpoint(c.endpoint, reg)
	if c.endpoint.Admission.Enabled {
		fmt.Printf("continuumd: admission control enabled (max queue %d)\n", c.endpoint.Admission.MaxQueue)
	}

	// One span store for the whole daemon: the wire server's request
	// spans and the endpoint's queue/exec spans land together, so one
	// pull (OpTrace or /debug/traces) returns this process's entire view
	// of any trace.
	spans := trace.NewSpanStore(c.traceBuf)
	ep.SetSpans(spans)

	srv := &wire.Server{
		Invoker:   ep,
		Batcher:   ep,
		Registry:  reg,
		Endpoints: []*faas.Endpoint{ep},
		Workers:   c.workers,
		Name:      name,
		Spans:     spans,
	}
	if c.verbose {
		srv.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if c.chaos != "" {
		srv.SetChaos(fault.NewChaos(c.chaosSpec))
		fmt.Printf("continuumd: chaos enabled (%s)\n", c.chaos)
	}
	var m *metrics.Registry
	if c.metricsAddr != "" {
		m = metrics.NewRegistry()
		ep.SetMetrics(m)
		srv.Metrics = m
		go func() {
			if err := wire.ServeMetrics(c.metricsAddr, m, spans, c.pprof); err != nil {
				fmt.Fprintln(os.Stderr, "continuumd: metrics server:", err)
			}
		}()
		fmt.Printf("continuumd: metrics on http://%s/metrics\n", c.metricsAddr)
	}
	lis, err := net.Listen("tcp", c.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "continuumd:", err)
		os.Exit(1)
	}
	fmt.Printf("continuumd: endpoint %q serving %d functions on %s (capacity %d, cold start %v)\n",
		name, len(reg.Names()), lis.Addr(), c.endpoint.Capacity, c.endpoint.ColdStart)

	// Federated mode: join the router once the listener is serving, so
	// the advertised address is live before the router can route to it.
	var agent *federation.Agent
	if c.router != "" {
		adv := c.advertise
		if adv == "" {
			adv = lis.Addr().String()
		}
		agent = federation.NewAgent(federation.AgentConfig{
			RouterAddr: c.router,
			Name:       name,
			Advertise:  adv,
			Endpoint:   ep,
			Functions:  reg.Names(),
			Logger:     srv.Logger,
		})
		agent.Start()
		fmt.Printf("continuumd: joining federation at %s (advertising %s)\n", c.router, adv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		s := <-sig
		fmt.Printf("continuumd: %v: draining in-flight requests (grace %v)\n", s, c.grace)
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
		srv.Shutdown(c.grace) // Serve returns nil once the drain completes
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
