// Command continuum-router is the federation control plane: a registry
// and router that many continuumd daemons register with over the wire
// protocol. Daemons join with -router, heartbeat their live load, and
// the router routes client invocations across the fleet with a
// pluggable policy — rendezvous hashing on function+payload affinity
// (the default: warm containers stay warm) or least-loaded (new work
// flows toward spare capacity).
//
// Usage:
//
//	continuum-router -listen 127.0.0.1:9080
//	continuum-router -listen 127.0.0.1:9080 -policy least-loaded -heartbeat 2s
//	continuum-router -listen 127.0.0.1:9080 -metrics-addr 127.0.0.1:9081
//
// Clients talk to the router exactly as they would to a single daemon:
// continuumctl invoke/bench/ping against the router's address routes
// across the fleet; `continuumctl endpoints` renders the live
// membership table. Routing composes the policy's preference order with
// the reliable-client machinery — retry with backoff walks down the
// preference list, per-member circuit breakers route around repeat
// offenders, and -hedge races a second member against a slow first
// choice — so member deaths and drains resolve without losing accepted
// requests.
//
// Membership is leased: a member silent for -suspect-after heartbeat
// intervals stops receiving new work (state "suspect"), and one silent
// for -expire-after intervals is expired and dropped. A draining member
// (continuumd shutting down, `Leave(drain)`) stops receiving new work
// immediately but keeps its connections until in-flight work finishes.
//
// With -metrics-addr the router serves Prometheus text exposition on
// /metrics (federation_* membership and routing series plus the wire
// client/server series), a liveness probe on /healthz, and its span
// store on /debug/traces — traced invocations record the router hop, so
// `continuumctl trace` shows the route decision chain between client
// and daemon spans.
//
// On SIGINT/SIGTERM the router drains in-flight routes (bounded by
// -grace) and exits. Daemons keep retrying registration, so a restarted
// router rebuilds its membership within one heartbeat interval — agents
// whose generation it no longer knows are told to re-register.
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
	"strings"
	"syscall"
	"time"

	"continuum/internal/federation"
	"continuum/internal/metrics"
	"continuum/internal/retry"
	"continuum/internal/trace"
	"continuum/internal/wire"
)

// config is what the command line sets: the router's registry, policy
// and outbound client, and how the process serves them.
type config struct {
	listen, metricsAddr string
	policyName          string
	router              federation.RouterConfig // Registry, Policy and Client
	workers             int
	grace               time.Duration
	traceBuf            int
	verbose, pprof      bool
}

// parseFlags parses the command line (without the program name) and
// reports what is wrong with it, or the -h usage, on errOut. Any error
// means the command line is bad: main exits 2 (0 for -h).
func parseFlags(args []string, errOut io.Writer) (config, error) {
	fs := flag.NewFlagSet("continuum-router", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var c config
	fs.StringVar(&c.listen, "listen", "127.0.0.1:9080", "address to serve on")
	fs.StringVar(&c.policyName, "policy", "hash", "routing policy: "+strings.Join(federation.PolicyNames, " or "))
	heartbeat := fs.Duration("heartbeat", 0, "heartbeat interval granted to members (0 = default 2s)")
	suspectAfter := fs.Int("suspect-after", 0, "missed heartbeat intervals before a member stops receiving new work (0 = default 2)")
	expireAfter := fs.Int("expire-after", 0, "missed heartbeat intervals before a member is expired and dropped (0 = default 4)")
	callTimeout := fs.Duration("timeout", 0, "per-routed-call deadline (0 = none)")
	hedgeSpec := fs.String("hedge", "", "hedge slow routed calls at a second member: 'auto' (p99-derived delay) or a fixed duration like '5ms' (empty = off)")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (empty = off)")
	fs.BoolVar(&c.verbose, "verbose", false, "log membership transitions and one structured line per request")
	fs.IntVar(&c.workers, "workers", 0, "max concurrent requests per connection for multiplexing clients (0 = default)")
	fs.DurationVar(&c.grace, "grace", 10*time.Second, "in-flight drain bound for graceful shutdown on SIGINT/SIGTERM")
	fs.IntVar(&c.traceBuf, "trace-buf", 0, "span ring-buffer capacity for distributed tracing (0 = default 4096)")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof debug handlers on the -metrics-addr mux")
	if err := fs.Parse(args); err != nil {
		return c, err // fs reported it
	}
	bad := func(err error) (config, error) {
		fmt.Fprintln(errOut, "continuum-router:", err)
		return c, err
	}
	policy, err := federation.PolicyByName(c.policyName)
	if err != nil {
		return bad(fmt.Errorf("-policy: %w", err))
	}
	hedge, err := wire.ParseHedge(*hedgeSpec)
	if err != nil {
		return bad(err)
	}
	c.router = federation.RouterConfig{
		Registry: federation.Config{
			HeartbeatInterval: *heartbeat,
			SuspectAfter:      *suspectAfter,
			ExpireAfter:       *expireAfter,
		},
		Policy: policy,
		Client: wire.ReliableConfig{
			Retry:       retry.Policy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
			CallTimeout: *callTimeout,
			Hedge:       hedge,
		},
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

	var logger *slog.Logger
	if c.verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	var m *metrics.Registry
	if c.metricsAddr != "" {
		m = metrics.NewRegistry()
	}
	spans := trace.NewSpanStore(c.traceBuf)

	c.router.Metrics, c.router.Spans, c.router.Logger = m, spans, logger
	rt, err := federation.NewRouter(c.router)
	if err != nil {
		fmt.Fprintln(os.Stderr, "continuum-router:", err)
		os.Exit(1)
	}
	defer rt.Close()

	srv := &wire.Server{
		Invoker: rt,
		Ops:     rt,
		Workers: c.workers,
		Name:    "router",
		Spans:   spans,
		Logger:  logger,
		Metrics: m,
	}
	if m != nil {
		go func() {
			if err := wire.ServeMetrics(c.metricsAddr, m, spans, c.pprof); err != nil {
				fmt.Fprintln(os.Stderr, "continuum-router: metrics server:", err)
			}
		}()
		fmt.Printf("continuum-router: metrics on http://%s/metrics\n", c.metricsAddr)
	}
	lis, err := net.Listen("tcp", c.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "continuum-router:", err)
		os.Exit(1)
	}
	fmt.Printf("continuum-router: routing with policy %q on %s (heartbeat %v)\n",
		c.policyName, lis.Addr(), rt.Registry().HeartbeatInterval())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		s := <-sig
		fmt.Printf("continuum-router: %v: draining in-flight routes (grace %v)\n", s, c.grace)
		srv.Shutdown(c.grace)
		close(drained)
	}()

	if err := srv.Serve(lis); err != nil {
		fmt.Fprintln(os.Stderr, "continuum-router:", err)
		os.Exit(1)
	}
	<-drained
	routes, errs := rt.RouteStats()
	fmt.Printf("continuum-router: drained, exiting (%d routed, %d failed)\n", routes, errs)
}
