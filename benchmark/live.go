package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/faas"
	"continuum/internal/federation"
	"continuum/internal/metrics"
	"continuum/internal/trace"
	"continuum/internal/wire"
)

// stackConfig describes one in-process composition of the live layers
// over loopback TCP — the same pieces the binaries assemble.
type stackConfig struct {
	routed  bool // client -> router -> daemons; else client -> one daemon
	daemons int
	// capacity is each endpoint's container slots; admission, when set,
	// is the BENCH_overload configuration.
	capacity  int
	admission bool
	fn        string        // function the callers invoke
	work      time.Duration // handler sleep; 0 = the builtin echo
	callers   int           // closed-loop callers = client connections

	rec        *recorder         // non-nil: the benchmark's wrappers record spans
	spanStores bool              // program-side SpanStores on client, router, daemons
	metricsOn  bool              // program-side metrics.Registry on all three
	clientM    *metrics.Registry // ReliableConfig.Metrics for the wire.* counters
}

type daemon struct {
	ep    *faas.Endpoint
	reg   *faas.Registry
	srv   *wire.Server
	addr  string
	agent *federation.Agent
}

// stack is a running composition. invoke is what a caller calls.
type stack struct {
	cfg      stackConfig
	router   *federation.Router
	routerLn *wire.Server
	daemons  []*daemon
	reliable *wire.ReliableClient
	clients  []*wire.Client
}

// primeReqBase numbers set-up traffic far above any timed request, so
// its spans never join a timed request's tree.
const primeReqBase = uint64(1) << 62

// reqNumber reads the request number a payload carries in its first 8
// bytes; it is the id the spans of one request share.
func reqNumber(p []byte) uint64 {
	if len(p) < 8 {
		return primeReqBase
	}
	return binary.BigEndian.Uint64(p)
}

// tracedInvoker times the calls into a faas.ContextInvoker (the router
// or an endpoint) from the benchmark's side of the boundary.
type tracedInvoker struct {
	inner faas.ContextInvoker
	rec   *recorder
	layer layer
}

func (t *tracedInvoker) Invoke(fn string, p []byte) ([]byte, error) {
	return t.InvokeContext(context.Background(), fn, p)
}

func (t *tracedInvoker) InvokeContext(ctx context.Context, fn string, p []byte) ([]byte, error) {
	start := t.rec.now()
	out, err := t.inner.InvokeContext(ctx, fn, p)
	t.rec.add(t.layer, reqNumber(p), start, t.rec.now())
	return out, err
}

// tracedPolicy times Policy.Order.
type tracedPolicy struct {
	inner federation.Policy
	rec   *recorder
}

func (t tracedPolicy) Order(fn string, p []byte, members []wire.MemberStatus) []string {
	start := t.rec.now()
	out := t.inner.Order(fn, p, members)
	t.rec.add(layerPolicy, reqNumber(p), start, t.rec.now())
	return out
}

func tracedHandler(h faas.Handler, rec *recorder) faas.Handler {
	return func(p []byte) ([]byte, error) {
		start := rec.now()
		out, err := h(p)
		rec.add(layerHandler, reqNumber(p), start, rec.now())
		return out, err
	}
}

// startStack brings the composition up to the point where the first
// timed operation can be sent: listeners up, fleet registered and
// routable, warm containers primed, connections dialed and the binary
// codec negotiated. Its duration is setup_s.
func startStack(cfg stackConfig) (*stack, error) {
	s := &stack{cfg: cfg}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	var routerAddr string
	if cfg.routed {
		var policy federation.Policy = federation.HashPolicy{}
		if cfg.rec != nil {
			policy = tracedPolicy{policy, cfg.rec}
		}
		rcfg := federation.RouterConfig{Policy: policy}
		var m *metrics.Registry
		if cfg.metricsOn {
			m = metrics.NewRegistry()
			rcfg.Metrics = m
			rcfg.Client.Metrics = m
		}
		var spans *trace.SpanStore
		if cfg.spanStores {
			spans = trace.NewSpanStore(0)
			rcfg.Spans = spans
		}
		rt, err := federation.NewRouter(rcfg)
		if err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		s.router = rt
		var inv faas.Invoker = rt
		if cfg.rec != nil {
			inv = &tracedInvoker{rt, cfg.rec, layerRouter}
		}
		s.routerLn = &wire.Server{Invoker: inv, Ops: rt, Name: "router", Metrics: m, Spans: spans}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("router listen: %w", err)
		}
		routerAddr = lis.Addr().String()
		go s.routerLn.Serve(lis)
	}

	final := make([]faas.Handler, cfg.daemons)
	for i := 0; i < cfg.daemons; i++ {
		d, h, err := startDaemon(cfg, i, routerAddr)
		if d != nil {
			s.daemons = append(s.daemons, d)
		}
		if err != nil {
			return nil, err
		}
		final[i] = h
	}
	if cfg.routed {
		deadline := time.Now().Add(10 * time.Second)
		for len(s.router.Registry().Routable()) < cfg.daemons {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("fleet never assembled: %d of %d daemons routable", len(s.router.Registry().Routable()), cfg.daemons)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	// Warm containers: hold cfg.callers invocations inside each daemon at
	// once (more can never be in flight in the closed loops), so every
	// timed invocation finds a warm container.
	width := cfg.callers
	if cfg.admission {
		width = cfg.capacity
	}
	for i, d := range s.daemons {
		if err := primeWarm(d, cfg.fn, width, final[i]); err != nil {
			return nil, err
		}
	}

	if cfg.routed {
		rc := wire.ReliableConfig{Addrs: []string{routerAddr}, PoolSize: cfg.callers, Metrics: cfg.clientM}
		if cfg.metricsOn && rc.Metrics == nil {
			rc.Metrics = metrics.NewRegistry()
		}
		if cfg.spanStores {
			rc.Spans = trace.NewSpanStore(0)
		}
		c, err := wire.NewReliableClient(rc)
		if err != nil {
			return nil, fmt.Errorf("reliable client: %w", err)
		}
		s.reliable = c
	} else {
		for i := 0; i < cfg.callers; i++ {
			c, err := wire.Dial(s.daemons[0].addr)
			if err != nil {
				return nil, fmt.Errorf("dial daemon: %w", err)
			}
			s.clients = append(s.clients, c)
		}
	}

	// Dial every pooled connection on both hops and let each negotiate
	// the binary codec: routed, 32 distinct keys per caller spread over
	// every daemon and pool slot; direct, four calls per connection.
	primes := 4 * len(s.clients)
	if cfg.routed {
		primes = 32 * cfg.callers
	}
	p := make([]byte, 16)
	for i := 0; i < primes; i++ {
		binary.BigEndian.PutUint64(p, primeReqBase+uint64(i))
		out, err := s.invoke(context.Background(), i%cfg.callers, p)
		if err != nil || !bytes.Equal(out, p) {
			return nil, fmt.Errorf("priming invoke %d: %q, %v", i, out, err)
		}
	}
	ok = true
	return s, nil
}

func startDaemon(cfg stackConfig, i int, routerAddr string) (*daemon, faas.Handler, error) {
	name := fmt.Sprintf("d%d", i+1)
	reg := faas.BuiltinRegistry()
	if cfg.work > 0 {
		work := cfg.work
		reg.Register(cfg.fn, func(p []byte) ([]byte, error) {
			time.Sleep(work)
			return p, nil
		})
	}
	h, found := reg.Lookup(cfg.fn)
	if !found {
		return nil, nil, fmt.Errorf("function %q not registered", cfg.fn)
	}
	if cfg.rec != nil {
		h = tracedHandler(h, cfg.rec)
	}
	ecfg := faas.EndpointConfig{Name: name, Capacity: cfg.capacity, WarmTTL: time.Hour}
	if cfg.admission {
		ecfg.QueueWait = 2 * time.Second
		ecfg.Admission = faas.AdmissionConfig{
			Enabled:         true,
			MaxQueue:        8,
			TargetQueueWait: 5 * time.Millisecond,
			MinSlots:        cfg.capacity,
			RetryAfterFloor: time.Millisecond,
		}
	}
	ep := faas.NewEndpoint(ecfg, reg)
	d := &daemon{ep: ep, reg: reg}
	var inv faas.Invoker = ep
	if cfg.rec != nil {
		inv = &tracedInvoker{ep, cfg.rec, layerDaemon}
	}
	d.srv = &wire.Server{Invoker: inv, Batcher: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}, Name: name}
	if cfg.metricsOn {
		m := metrics.NewRegistry()
		ep.SetMetrics(m)
		d.srv.Metrics = m
	}
	if cfg.spanStores {
		st := trace.NewSpanStore(0)
		ep.SetSpans(st)
		d.srv.Spans = st
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, nil, fmt.Errorf("daemon listen: %w", err)
	}
	d.addr = lis.Addr().String()
	go d.srv.Serve(lis)
	if routerAddr != "" {
		d.agent = federation.NewAgent(federation.AgentConfig{RouterAddr: routerAddr, Name: name, Advertise: d.addr, Endpoint: ep})
		d.agent.Start()
	}
	return d, h, nil
}

// primeWarm fills the daemon's warm pool for fn: a gate handler holds
// width concurrent invocations until all have arrived, which forces width
// containers to exist at once; then the real handler is registered.
func primeWarm(d *daemon, fn string, width int, final faas.Handler) error {
	var arrived atomic.Int32
	open := make(chan struct{})
	d.reg.Register(fn, func(p []byte) ([]byte, error) {
		if int(arrived.Add(1)) == width {
			close(open)
		}
		select {
		case <-open:
			return p, nil
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("warm-pool gate: only %d of %d invocations arrived", arrived.Load(), width)
		}
	})
	// One connection per held invocation: wire.Server hands a connection's
	// requests to a worker pool that can leave a request queued behind a
	// blocked one, which on a single multiplexed connection would starve
	// the gate.
	errs := make(chan error, width)
	for i := 0; i < width; i++ {
		c, err := wire.Dial(d.addr)
		if err != nil {
			return fmt.Errorf("dial daemon for priming: %w", err)
		}
		defer c.Close()
		go func() {
			_, err := c.Invoke(fn, []byte("prime"))
			errs <- err
		}()
	}
	for i := 0; i < width; i++ {
		if err := <-errs; err != nil {
			return fmt.Errorf("priming warm pool: %w", err)
		}
	}
	d.reg.Register(fn, final)
	return nil
}

func (s *stack) invoke(ctx context.Context, caller int, p []byte) ([]byte, error) {
	if s.reliable != nil {
		return s.reliable.InvokeContext(ctx, s.cfg.fn, p)
	}
	return s.clients[caller%len(s.clients)].InvokeContext(ctx, s.cfg.fn, p)
}

func (s *stack) coldStarts() (cold, warm int64) {
	for _, d := range s.daemons {
		cold += d.ep.ColdStarts()
		warm += d.ep.WarmHits()
	}
	return cold, warm
}

// close stops every listener, agent and connection and waits for the
// servers' connection handlers to exit.
func (s *stack) close() {
	if s.reliable != nil {
		s.reliable.Close()
	}
	for _, c := range s.clients {
		c.Close()
	}
	for _, d := range s.daemons {
		if d.agent != nil {
			d.agent.Stop()
		}
	}
	if s.routerLn != nil {
		s.routerLn.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, d := range s.daemons {
		d.srv.Close()
		d.ep.Close()
	}
}

// sample is one completed operation: when it ended (ns since the phase
// started) and how long the caller waited.
type sample struct{ end, lat int64 }

// loopResult is what one closed-loop phase observed.
type loopResult struct {
	windows   []window
	lats      []float64 // every latency, µs, sorted
	attempted int64
	failed    int64
	firstErr  error
	// cold and warm are the daemons' container counters over the phase.
	cold, warm int64
}

// closedLoop drives callers goroutines for seconds: each sends its next
// request only when the previous one has answered, checks the echoed
// bytes, and records the caller-observed latency. Request numbers start
// at firstReq and are unique across callers. With a recorder, each call
// is also a client span.
func closedLoop(s *stack, base []byte, firstReq uint64, seconds float64, rec *recorder) loopResult {
	callers := s.cfg.callers
	perCaller := make([][]sample, callers)
	failed := make([]int64, callers)
	errs := make([]error, callers)
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := append([]byte(nil), base...)
			samples := make([]sample, 0, 1<<16)
			ctx := context.Background()
			for n := uint64(0); ; n++ {
				req := firstReq + n*uint64(callers) + uint64(c)
				binary.BigEndian.PutUint64(buf, req)
				var spanStart int64
				if rec != nil {
					spanStart = rec.now()
				}
				t0 := time.Now()
				out, err := s.invoke(ctx, c, buf)
				t1 := time.Now()
				if rec != nil {
					rec.add(layerClient, req, spanStart, rec.now())
				}
				if err != nil || !bytes.Equal(out, buf) {
					failed[c]++
					if errs[c] == nil {
						if err == nil {
							err = fmt.Errorf("request %d: echoed %d bytes differ from the %d sent", req, len(out), len(buf))
						}
						errs[c] = err
					}
				} else {
					samples = append(samples, sample{int64(t1.Sub(start)), int64(t1.Sub(t0))})
				}
				if t1.Sub(start) >= dur {
					break
				}
			}
			perCaller[c] = samples
		}(c)
	}
	wg.Wait()
	var res loopResult
	var all []sample
	for c := range perCaller {
		all = append(all, perCaller[c]...)
		res.failed += failed[c]
		if res.firstErr == nil {
			res.firstErr = errs[c]
		}
	}
	res.attempted = int64(len(all)) + res.failed
	res.windows = sliceWindows(all, seconds)
	res.lats = make([]float64, len(all))
	for i, sm := range all {
		res.lats[i] = float64(sm.lat) / 1e3
	}
	sort.Float64s(res.lats)
	return res
}

// windowSeconds is the width of a closed-loop window: short enough that
// a run has a couple of dozen of them for its median, long enough that
// each holds thousands of operations.
const windowSeconds = 0.5

// sliceWindows cuts a phase into whole windows (one window of the full
// length when the phase is shorter than that) and reduces each
// to its completed-operation count and median latency. Operations that
// end after the last whole window are left out of the windows.
func sliceWindows(all []sample, seconds float64) []window {
	width := min(windowSeconds, seconds)
	n := int(seconds / width)
	buckets := make([][]float64, n)
	for _, sm := range all {
		if w := int(float64(sm.end) / 1e9 / width); w < n {
			buckets[w] = append(buckets[w], float64(sm.lat)/1e3)
		}
	}
	ws := make([]window, n)
	for i, b := range buckets {
		ws[i] = window{ops: int64(len(b)), dur: width, p50us: median(b)}
	}
	return ws
}

// seededPayload returns size bytes drawn from seed. The first 8 are
// overwritten with the request number on every send.
func seededPayload(seed uint64, size int) []byte {
	p := make([]byte, size)
	rand.New(rand.NewSource(int64(seed))).Read(p)
	return p
}
