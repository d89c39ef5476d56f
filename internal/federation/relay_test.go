package federation

// The router is a relay: a large invoke's payload, and the daemon's
// answer, arrive in buffers of their own, which the router hands back
// for reuse once its response is written (wire's relay contract). These
// tests check that a recycled buffer never corrupts an echo, and that a
// relayed 64 KiB call allocates little more than the two bodies the
// client and the daemon keep. Measure the relay with
//
//	go test -run '^$' -bench RouterRelay -benchmem ./internal/federation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/metrics"
	"continuum/internal/retry"
	"continuum/internal/wire"
)

// relayFleet starts a router (hash policy, hedging after hedge when it
// is nonzero) in front of one echo daemon per entry of chaos, each with
// that chaos spec ("" = none), and returns the router's address once
// every daemon is routable, and the router's metrics.
func relayFleet(tb testing.TB, hedge time.Duration, chaos ...string) (string, *metrics.Registry) {
	tb.Helper()
	const interval = 50 * time.Millisecond
	m := metrics.NewRegistry()
	rcfg := RouterConfig{
		Metrics:  m,
		Registry: Config{HeartbeatInterval: interval},
		Client: wire.ReliableConfig{
			Retry:       retry.Policy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
			CallTimeout: 10 * time.Second,
		},
	}
	if hedge > 0 {
		rcfg.Client.Hedge = wire.HedgeConfig{Enabled: true, Delay: hedge}
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rt.Close() })
	addr := serve(tb, &wire.Server{Invoker: rt, Ops: rt, Name: "router"})

	for i, spec := range chaos {
		reg := faas.NewRegistry()
		reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
		name := fmt.Sprintf("d%d", i+1)
		ep := faas.NewEndpoint(faas.EndpointConfig{Name: name, Capacity: 16}, reg)
		tb.Cleanup(ep.Close)
		srv := &wire.Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}, Name: name}
		if spec != "" {
			cs, err := fault.ParseChaos(spec)
			if err != nil {
				tb.Fatal(err)
			}
			srv.SetChaos(fault.NewChaos(cs))
		}
		a := NewAgent(AgentConfig{RouterAddr: addr, Name: name, Advertise: serve(tb, srv), Endpoint: ep})
		a.Start()
		tb.Cleanup(func() { a.Leave(false) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.Registry().Routable()) < len(chaos) {
		if time.Now().After(deadline) {
			tb.Fatalf("only %d of %d daemons routable", len(rt.Registry().Routable()), len(chaos))
		}
		time.Sleep(time.Millisecond)
	}
	return addr, m
}

// serve runs srv on a loopback listener until the test ends.
func serve(tb testing.TB, srv *wire.Server) string {
	tb.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(lis)
	tb.Cleanup(srv.Close)
	return lis.Addr().String()
}

// TestRelayEchoesExactUnderHedgingAndChaos is the gate for the relay's
// buffer recycling. Eight callers send distinct seeded payloads of 1 B
// to 256 KiB, so both the small-frame and the own-buffer read paths
// run, through a router that hedges after 1 ms in front of three
// daemons, one of them injecting errors and delays. The callers share
// two connections, so the router reads each connection's next large
// request while earlier ones are still being answered. A buffer
// recycled while something still reads it would corrupt some echo (a
// router that recycled each request before forwarding it fails here
// within a few runs); every echo must come back byte for byte, and no
// call may fail. Under -race most calls outlive the 1 ms hedge delay,
// so few relays recycle there; wire's TestRelayKeepsWhatItMustNot pins
// the hedge rule itself.
func TestRelayEchoesExactUnderHedgingAndChaos(t *testing.T) {
	addr, m := relayFleet(t, time.Millisecond, "", "", "err=0.1,delay=2ms,delayp=0.2,seed=7")
	const callers, calls = 8, 40
	// Both read paths, either side of the small-frame bound; sizes
	// repeat, so recycled buffers fit the next large frames.
	sizes := []int{1, 100, 4 << 10, 4<<10 + 1, 16 << 10, 64 << 10, 256 << 10}
	var conns [2]*wire.Client
	for i := range conns {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := conns[c%len(conns)]
			rng := rand.New(rand.NewSource(int64(c + 1)))
			for i := 0; i < calls; i++ {
				p := make([]byte, sizes[rng.Intn(len(sizes))])
				rng.Read(p)
				if len(p) >= 8 {
					binary.BigEndian.PutUint64(p, uint64(c*calls+i)) // distinct per call
				}
				out, err := cl.Invoke("echo", p)
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d (%d B): %v", c, i, len(p), err)
					return
				}
				if !bytes.Equal(out, p) {
					errs <- fmt.Errorf("caller %d call %d: %d-byte echo differs from its %d-byte payload", c, i, len(out), len(p))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m.Counter("wire_hedges_total").Value() == 0 {
		t.Error("no relay hedged: the path that must not recycle never ran")
	}
}

// TestRelayAllocatesTwoBodiesPerCall: with client, router and daemon in
// one process, a relayed 64 KiB call allocates the two bodies that are
// kept (the daemon's request, the client's response) and little else —
// at most 2.5× the payload. The router's two bodies are recycled.
// TotalAlloc is process-wide, so the GC stays off while it is read (a
// collection would empty the pools), and -race drops a quarter of all
// pool puts at random, so the best of many single-call rounds is what
// the relay itself allocates.
func TestRelayAllocatesTwoBodiesPerCall(t *testing.T) {
	addr, _ := relayFleet(t, 0, "")
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := bytes.Repeat([]byte{0x5A}, 64<<10)
	for i := 0; i < 50; i++ { // fill the pools and the warm container
		if _, err := c.Invoke("echo", p); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 60
	best := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.ReadMemStats(&m0)
		out, err := c.Invoke("echo", p)
		runtime.ReadMemStats(&m1)
		if err != nil || !bytes.Equal(out, p) {
			t.Fatalf("round %d: %d-byte echo, %v", r, len(out), err)
		}
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	if limit := uint64(len(p)) * 5 / 2; best > limit {
		t.Fatalf("a relayed %d-byte call allocated %d bytes, want at most %d", len(p), best, limit)
	}
	t.Logf("a relayed %d-byte call allocated %d bytes (%.2f× the payload)", len(p), best, float64(best)/float64(len(p)))
}

// BenchmarkRouterRelay64K is one caller's 64 KiB echo through a router
// and one daemon, all in this process: two wire hops each way.
func BenchmarkRouterRelay64K(b *testing.B) {
	addr, _ := relayFleet(b, 0, "")
	c, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	p := bytes.Repeat([]byte{0x5A}, 64<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Invoke("echo", p); err != nil {
			b.Fatal(err)
		}
	}
}
