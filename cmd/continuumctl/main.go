// Command continuumctl drives continuumd endpoints over the wire
// protocol.
//
// Usage:
//
//	continuumctl -addr 127.0.0.1:9090 ping
//	continuumctl -addr 127.0.0.1:9090 list
//	continuumctl -addr 127.0.0.1:9080 endpoints
//	continuumctl -addr 127.0.0.1:9090 stats
//	continuumctl -addr 127.0.0.1:9090 invoke echo 'hello'
//	continuumctl -addr 127.0.0.1:9090 invoke matmul '{"n":64}'
//	continuumctl -addr 127.0.0.1:9090 bench echo -n 1000 -c 8
//	continuumctl -addr 127.0.0.1:9090 bench echo -n 1000 -c 64 -mux
//	continuumctl -addr 127.0.0.1:9090 top -i 2s
//
// -addr accepts a comma-separated federation; invoke, ping, and bench
// then go through a reliable client (retry with backoff, failover, and
// per-endpoint circuit breakers) and print a breaker summary. -timeout
// bounds every round trip so a dead endpoint fails fast.
//
//	continuumctl -addr 127.0.0.1:9090,127.0.0.1:9092 -timeout 2s bench echo -n 1000
//
// -hedge enables hedged requests against a federation: a call still in
// flight after the hedge delay is re-issued at a second endpoint and the
// first response wins. "-hedge auto" derives the delay from the client's
// own observed p99; "-hedge 5ms" fixes it. A hedge summary (arms
// launched, races won) prints after federation commands.
//
//	continuumctl -addr 127.0.0.1:9090,127.0.0.1:9092 -hedge auto bench sleep -p '{"ms":2}' -n 2000
//
// -priority stamps invoke and bench requests with an admission class
// (low | normal | high). Against daemons running -max-queue, low
// priority traffic sheds first under overload while high is served
// longest; daemons without admission control ignore the class.
//
//	continuumctl -addr 127.0.0.1:9090 -priority high invoke echo 'hello'
//	continuumctl -addr 127.0.0.1:9090 -priority low bench sleep -p '{"ms":2}' -n 2000 -c 64
//
// -trace-out FILE runs invoke traced: the client's own spans (root
// invocation, retry attempts, hedge arms, per-call sends) are written to
// FILE and the trace ID is printed. `continuumctl trace <id>` then pulls
// every -addr endpoint's span store, merges in FILE (via -local), and
// renders the assembled cross-daemon tree — or exports it as a Chrome
// trace-event file with -chrome, loadable in the same viewer as
// simulator traces.
//
//	continuumctl -addr 127.0.0.1:9090,127.0.0.1:9092 -hedge 1ms -trace-out /tmp/ctl.spans invoke sleep '{"ms":5}'
//	continuumctl -addr 127.0.0.1:9090,127.0.0.1:9092 trace -local /tmp/ctl.spans <id>
//	continuumctl -addr 127.0.0.1:9090,127.0.0.1:9092 trace -slowest 5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"continuum/internal/faas"
	"continuum/internal/metrics"
	"continuum/internal/trace"
	"continuum/internal/wire"
)

// config is what the global flags set, plus the command and its
// arguments.
type config struct {
	addrs    []string
	timeout  time.Duration
	hedge    wire.HedgeConfig
	traceOut string
	priority faas.Priority
	args     []string
}

// parseFlags parses the command line (without the program name) and
// reports what is wrong with it, or the usage, on errOut. Any error
// means the command line is bad: main exits 2 (0 for -h).
func parseFlags(args []string, errOut io.Writer) (config, error) {
	fs := flag.NewFlagSet("continuumctl", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.Usage = func() { fmt.Fprintln(errOut, usageText); fs.PrintDefaults() }
	var c config
	addr := fs.String("addr", "127.0.0.1:9090", "endpoint address, or comma-separated list for retry+failover")
	fs.DurationVar(&c.timeout, "timeout", 0, "per-call deadline (0 = none)")
	fs.Func("hedge", "hedge in-flight calls at a second endpoint: 'auto' (p99-derived delay) or a fixed duration like '5ms' (unset = off; needs >= 2 addresses)", func(v string) (err error) {
		c.hedge, err = wire.ParseHedge(v)
		return err
	})
	fs.StringVar(&c.traceOut, "trace-out", "", "trace invoke calls, writing the client-side spans to this file and printing the trace ID (empty = untraced)")
	fs.Func("priority", "admission priority for invoke/bench requests: low, normal, or high (unset = normal; only matters against daemons running -max-queue)", func(v string) error {
		for p := faas.PriorityLow; p <= faas.PriorityHigh; p++ {
			if v == p.String() {
				c.priority = p
				return nil
			}
		}
		return errors.New("want low, normal, or high")
	})
	if err := fs.Parse(args); err != nil {
		return c, err // fs reported it
	}
	bad := func(err error) (config, error) {
		fmt.Fprintln(errOut, "continuumctl:", err)
		return c, err
	}
	if c.args = fs.Args(); len(c.args) == 0 {
		fs.Usage()
		return c, errors.New("no command given")
	}
	if c.addrs = splitAddrs(*addr); len(c.addrs) == 0 {
		return bad(errors.New("no endpoint address given"))
	}
	if c.hedge.Enabled && len(c.addrs) < 2 {
		return bad(errors.New("-hedge needs at least two -addr endpoints"))
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	args, addrs, timeout, hedge := cfg.args, cfg.addrs, cfg.timeout, cfg.hedge
	// baseCtx carries the request priority across the wire; daemons
	// without admission control ignore it.
	baseCtx := faas.WithPriority(context.Background(), cfg.priority)
	var ctlSpans *trace.SpanStore
	if cfg.traceOut != "" {
		ctlSpans = trace.NewSpanStore(0)
	}

	// Federation commands (ping, invoke, bench) use the reliable client
	// when several addresses are given — retry, failover, breakers. The
	// admin commands (list, stats, top) always talk to the first address.
	var rc *wire.ReliableClient
	if len(addrs) > 1 {
		var err error
		rc, err = wire.NewReliableClient(wire.ReliableConfig{
			Addrs:       addrs,
			CallTimeout: timeout,
			Hedge:       hedge,
			Spans:       ctlSpans,
			Service:     "ctl",
		})
		if err != nil {
			fatal(err)
		}
		defer rc.Close()
	}
	// admin lazily dials the first address for the single-endpoint ops.
	var c *wire.Client
	admin := func() *wire.Client {
		if c == nil {
			var err error
			c, err = wire.Dial(addrs[0])
			if err != nil {
				fatal(err)
			}
			if timeout > 0 {
				c.SetCallTimeout(timeout)
			}
		}
		return c
	}
	defer func() {
		if c != nil {
			c.Close()
		}
	}()

	switch args[0] {
	case "ping":
		start := time.Now()
		var err error
		if rc != nil {
			err = rc.Ping()
		} else {
			err = admin().Ping()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pong in %v\n", time.Since(start).Round(time.Microsecond))
		breakerSummary(rc)

	case "list":
		names, err := admin().List()
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}

	case "endpoints":
		// Federation membership: -addr should point at a continuum-router.
		members, err := admin().Endpoints()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-12s %-21s %-9s %5s %6s %9s %6s %8s %6s\n",
			"MEMBER", "ADDR", "STATE", "GEN", "QUEUE", "INFLIGHT", "SLOTS", "CAP", "AGE")
		for _, m := range members {
			slots := fmt.Sprintf("%d", m.SlotLimit)
			if m.SlotLimit <= 0 {
				slots = "-"
			}
			state := m.State
			if m.Cordoned && state == "alive" {
				state = "cordoned"
			}
			fmt.Printf("%-12s %-21s %-9s %5d %6d %9d %6s %8d %6s\n",
				m.Name, m.Addr, state, m.Generation, m.QueueDepth, m.InFlight,
				slots, m.Capacity,
				(time.Duration(m.AgeMS) * time.Millisecond).Round(time.Millisecond))
		}

	case "stats":
		stats, err := admin().Stats()
		if err != nil {
			fatal(err)
		}
		for _, s := range stats {
			fmt.Printf("%s: capacity=%d running=%d invocations=%d cold=%d warm=%d\n",
				s.Name, s.Capacity, s.Running, s.Invocations, s.ColdStarts, s.WarmHits)
		}

	case "invoke":
		if len(args) < 2 {
			usage()
		}
		payload := ""
		if len(args) >= 3 {
			payload = args[2]
		}
		var out []byte
		var err error
		switch {
		case rc != nil:
			// The reliable client starts the trace itself when ctlSpans is
			// configured (root span per call).
			out, err = rc.InvokeContext(baseCtx, args[1], []byte(payload))
		case ctlSpans != nil:
			// Raw single-endpoint client: start the trace here and run the
			// call under it so the send span (and the server's spans)
			// join it.
			c := admin()
			c.SetSpans(ctlSpans, "ctl")
			ctx := trace.NewContext(baseCtx,
				trace.SpanContext{TraceID: trace.NewTraceID()})
			out, err = c.InvokeContext(ctx, args[1], []byte(payload))
		default:
			out, err = admin().InvokeContext(baseCtx, args[1], []byte(payload))
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		breakerSummary(rc)
		flushSpans(ctlSpans, cfg.traceOut)

	case "top":
		topFlags := flag.NewFlagSet("top", flag.ExitOnError)
		interval := topFlags.Duration("i", 2*time.Second, "refresh interval")
		iters := topFlags.Int("n", 0, "number of refreshes (0 = forever)")
		if err := topFlags.Parse(args[1:]); err != nil {
			fatal(err)
		}
		runTop(admin(), *interval, *iters)

	case "bench":
		if len(args) < 2 {
			usage()
		}
		benchFlags := flag.NewFlagSet("bench", flag.ExitOnError)
		n := benchFlags.Int("n", 1000, "total invocations")
		conc := benchFlags.Int("c", 8, "concurrent workers")
		payload := benchFlags.String("p", "", "payload")
		mux := benchFlags.Bool("mux", false, "share one multiplexed connection across all workers instead of dialing per worker")
		if err := benchFlags.Parse(args[2:]); err != nil {
			fatal(err)
		}
		runBench(baseCtx, addrs, timeout, hedge, args[1], []byte(*payload), *n, *conc, *mux)

	case "trace":
		traceFlags := flag.NewFlagSet("trace", flag.ExitOnError)
		slowest := traceFlags.Int("slowest", 0, "summarize the N slowest retained traces instead of rendering one")
		chrome := traceFlags.String("chrome", "", "write the assembled trace as a Chrome trace-event file (open in chrome://tracing or Perfetto)")
		local := traceFlags.String("local", "", "merge spans from a local span file (written by -trace-out)")
		if err := traceFlags.Parse(args[1:]); err != nil {
			fatal(err)
		}
		id := traceFlags.Arg(0)
		if traceFlags.NArg() > 1 {
			// Accept `trace <id> -chrome f` as well as `trace -chrome f
			// <id>`: the stdlib stops flag parsing at the first positional
			// argument, so re-parse whatever followed the ID.
			if err := traceFlags.Parse(traceFlags.Args()[1:]); err != nil {
				fatal(err)
			}
		}
		if id == "" && *slowest <= 0 {
			fatal(fmt.Errorf("trace: need a trace ID or -slowest N"))
		}
		runTrace(addrs, timeout, id, *slowest, *chrome, *local)

	default:
		usage()
	}
}

// flushSpans writes the client-side spans of a traced run to the
// -trace-out file and prints the trace IDs it recorded, so the user can
// hand one straight to `continuumctl trace`.
func flushSpans(store *trace.SpanStore, path string) {
	if store == nil || path == "" {
		return
	}
	// A hedged race's losing arm (and a retry still unwinding) settles
	// asynchronously just after the winner returns; wait for the store to
	// go quiet — bounded at ~500ms — so the file includes every arm.
	prev := -1
	for i := 0; i < 20; i++ {
		n := store.Len()
		if n == prev {
			break
		}
		prev = n
		time.Sleep(25 * time.Millisecond)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(fmt.Errorf("trace-out: %w", err))
	}
	if err := store.WriteJSON(f, ""); err != nil {
		f.Close()
		fatal(fmt.Errorf("trace-out: %w", err))
	}
	if err := f.Close(); err != nil {
		fatal(fmt.Errorf("trace-out: %w", err))
	}
	for _, s := range trace.Summarize(store.Snapshot()) {
		fmt.Fprintf(os.Stderr, "trace %s: %d client spans written to %s\n", s.TraceID, s.Spans, path)
	}
}

// runTrace pulls every endpoint's span store (plus an optional local
// span file), merges the sets, and either summarizes the slowest traces
// or renders one assembled trace as a tree — optionally exporting it as
// a Chrome trace-event file through the simulator's exporter, so live
// and simulated runs open in the same viewer.
func runTrace(addrs []string, timeout time.Duration, id string, slowest int, chrome, local string) {
	sets := make([][]*trace.Span, 0, len(addrs)+1)
	for _, a := range addrs {
		c, err := wire.Dial(a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %s unreachable: %v\n", a, err)
			continue
		}
		if timeout > 0 {
			c.SetCallTimeout(timeout)
		}
		pulled, err := c.Trace(id)
		c.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %s: %v\n", a, err)
			continue
		}
		set := make([]*trace.Span, len(pulled))
		for i := range pulled {
			set[i] = &pulled[i]
		}
		sets = append(sets, set)
	}
	if local != "" {
		f, err := os.Open(local)
		if err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		spans, err := trace.ReadSpans(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		sets = append(sets, spans)
	}
	merged := trace.MergeSpans(sets...)
	if slowest > 0 {
		summaries := trace.Summarize(merged)
		if len(summaries) > slowest {
			summaries = summaries[:slowest]
		}
		fmt.Printf("%-18s %-24s %6s %6s %12s %5s\n", "TRACE", "ROOT", "SPANS", "SVCS", "DURATION", "ERR")
		for _, s := range summaries {
			errMark := ""
			if s.Err {
				errMark = "!"
			}
			fmt.Printf("%-18s %-24s %6d %6d %12v %5s\n",
				s.TraceID, s.Root, s.Spans, s.Services, s.Duration.Round(time.Microsecond), errMark)
		}
		return
	}
	var spans []*trace.Span
	for _, sp := range merged {
		if sp.TraceID == id {
			spans = append(spans, sp)
		}
	}
	if len(spans) == 0 {
		fatal(fmt.Errorf("trace %s: no spans retained at %s (rings overwrite; pull sooner or raise -trace-buf)", id, strings.Join(addrs, ",")))
	}
	fmt.Printf("trace %s: %d spans\n", id, len(spans))
	renderTraceTree(spans)
	if chrome != "" {
		f, err := os.Create(chrome)
		if err != nil {
			fatal(err)
		}
		if err := trace.SpansToTracer(spans).WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace written to %s\n", chrome)
	}
}

// renderTraceTree prints one trace's spans as an indented parent/child
// tree with offsets relative to the earliest span. Spans whose parent
// was lost (ring overwrite, legacy hop) surface as extra roots rather
// than disappearing.
func renderTraceTree(spans []*trace.Span) {
	byID := make(map[string]*trace.Span, len(spans))
	children := make(map[string][]*trace.Span)
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	var roots []*trace.Span
	for _, sp := range spans {
		if sp.Parent != "" && byID[sp.Parent] != nil {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	epoch := spans[0].Start
	for _, sp := range spans {
		if sp.Start < epoch {
			epoch = sp.Start
		}
	}
	var walk func(sp *trace.Span, depth int)
	walk = func(sp *trace.Span, depth int) {
		indent := strings.Repeat("  ", depth)
		line := fmt.Sprintf("%s%-8s %s [%s]", indent, sp.Service, sp.Name, sp.Kind)
		if sp.Attempt > 0 {
			line += fmt.Sprintf(" attempt=%d", sp.Attempt)
		}
		for _, k := range sortedAttrKeys(sp.Attrs) {
			line += fmt.Sprintf(" %s=%s", k, sp.Attrs[k])
		}
		line += fmt.Sprintf("  +%v %v",
			time.Duration(sp.Start-epoch).Round(time.Microsecond),
			sp.Duration().Round(time.Microsecond))
		if sp.Err != "" {
			line += " err=" + sp.Err
		}
		fmt.Println(line)
		for _, ch := range children[sp.SpanID] {
			walk(ch, depth+1)
		}
	}
	for _, root := range roots {
		walk(root, 0)
	}
}

func sortedAttrKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runTop polls the server's live per-function metrics and renders them as
// a table, refreshing until interrupted (or iters refreshes with -n).
func runTop(c *wire.Client, interval time.Duration, iters int) {
	for i := 0; iters == 0 || i < iters; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		rows, err := c.Top()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s  (%d functions)\n", time.Now().Format("15:04:05"), len(rows))
		fmt.Printf("%-20s %-12s %8s %10s %10s %10s %6s %6s\n",
			"ENDPOINT", "FUNCTION", "CALLS", "P50", "P90", "P99", "COLD", "WARM")
		for _, r := range rows {
			fmt.Printf("%-20s %-12s %8d %10s %10s %10s %6d %6d\n",
				r.Endpoint, r.Fn, r.Count,
				metrics.FormatDuration(r.P50),
				metrics.FormatDuration(r.P90),
				metrics.FormatDuration(r.P99),
				r.ColdStarts, r.WarmHits)
		}
		fmt.Println()
	}
}

// benchCaller is the slice of the client API runBench needs; both
// wire.Client and wire.ReliableClient satisfy it.
type benchCaller interface {
	InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error)
	Close() error
}

// runBench fires n invocations across conc workers, printing throughput
// and latency percentiles. By default each worker dials its own
// connection (reliable clients when several addresses are given); with
// mux all workers share ONE multiplexed client, so every call rides the
// same connection with out-of-order responses — the way to see the
// pipelined wire protocol's throughput rather than the kernel's accept
// rate.
func runBench(ctx context.Context, addrs []string, timeout time.Duration, hedge wire.HedgeConfig, fn string, payload []byte, n, conc int, mux bool) {
	var rcsMu sync.Mutex
	var rcs []*wire.ReliableClient // for the post-run hedge summary
	dial := func() (benchCaller, error) {
		if len(addrs) > 1 {
			rc, err := wire.NewReliableClient(wire.ReliableConfig{Addrs: addrs, CallTimeout: timeout, Hedge: hedge})
			if err == nil {
				rcsMu.Lock()
				rcs = append(rcs, rc)
				rcsMu.Unlock()
			}
			return rc, err
		}
		c, err := wire.Dial(addrs[0])
		if err != nil {
			return nil, err
		}
		if timeout > 0 {
			c.SetCallTimeout(timeout)
		}
		return c, nil
	}
	var shared benchCaller
	if mux {
		var err error
		if shared, err = dial(); err != nil {
			fatal(fmt.Errorf("bench dial: %w", err))
		}
		defer shared.Close()
	}
	per := n / conc
	lats := make([][]time.Duration, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conc; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := shared
			if c == nil {
				var err error
				c, err = dial()
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench dial:", err)
					return
				}
				defer c.Close()
			}
			for j := 0; j < per; j++ {
				t0 := time.Now()
				if _, err := c.InvokeContext(ctx, fn, payload); err != nil {
					fmt.Fprintln(os.Stderr, "bench invoke:", err)
					return
				}
				lats[i] = append(lats[i], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		fatal(fmt.Errorf("no successful invocations"))
	}
	sortDurations(all)
	fmt.Printf("%d calls in %v: %.0f calls/s\n",
		len(all), elapsed.Round(time.Millisecond), float64(len(all))/elapsed.Seconds())
	fmt.Printf("latency p50=%v p90=%v p99=%v max=%v\n",
		all[len(all)/2].Round(time.Microsecond),
		all[len(all)*9/10].Round(time.Microsecond),
		all[len(all)*99/100].Round(time.Microsecond),
		all[len(all)-1].Round(time.Microsecond))
	if hedge.Enabled {
		var launched, wins int64
		for _, rc := range rcs {
			l, w := rc.HedgeStats()
			launched += l
			wins += w
		}
		fmt.Printf("hedges: %d launched, %d won\n", launched, wins)
	}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// splitAddrs parses the -addr flag into a clean address list.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// breakerSummary prints each endpoint's circuit state (and, when hedging
// ran, the hedge counters) after a federation command; nil-safe for the
// single-address path.
func breakerSummary(rc *wire.ReliableClient) {
	if rc == nil {
		return
	}
	states := rc.BreakerStates()
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "breaker %s: %s\n", k, states[k])
	}
	if launched, wins := rc.HedgeStats(); launched > 0 {
		fmt.Fprintf(os.Stderr, "hedges: %d launched, %d won\n", launched, wins)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, usageText)
	os.Exit(2)
}

const usageText = `continuumctl [-addr host:port[,host:port...]] [-timeout d] [-hedge auto|dur] <command>

commands:
  ping                      round-trip check
  list                      registered functions
  endpoints                 federation membership table (point -addr at a continuum-router)
  stats                     endpoint counters
  invoke <fn> [payload]     call a function
  top [-i interval] [-n refreshes]        live per-function latency table
  bench <fn> [-n N] [-c C] [-p payload] [-mux]   load test (-mux: one shared multiplexed connection)
  trace <id> [-chrome file] [-local file]        assemble one cross-daemon trace from every -addr
  trace -slowest N [-local file]                 summarize the slowest retained traces

With several -addr endpoints, ping/invoke/bench retry with backoff and
fail over across them behind per-endpoint circuit breakers; -timeout
bounds each round trip. -hedge additionally races slow in-flight calls
against a second endpoint ('auto' = p99-derived delay, or a fixed
duration like '5ms'). -trace-out FILE traces invoke calls, saving the
client-side spans to FILE for later assembly with trace -local.`

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "continuumctl:", err)
	os.Exit(1)
}
