package wire

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/metrics"
	"continuum/internal/retry"
)

// TestMultiplexedOutOfOrder: a slow call and a fast call share one
// connection; the fast call must complete while the slow one is still
// in flight — the head-of-line block the multiplexed protocol removes.
func TestMultiplexedOutOfOrder(t *testing.T) {
	srv := echoServer(t, "mux") // has "slow" (150ms) and "echo"
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Invoke("slow", []byte("s"))
		slowDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // slow call is on the wire

	start := time.Now()
	out, err := c.Invoke("echo", []byte("fast"))
	fastTook := time.Since(start)
	if err != nil || string(out) != "fast" {
		t.Fatalf("fast call: %q, %v", out, err)
	}
	if fastTook > 100*time.Millisecond {
		t.Fatalf("fast call took %v behind a 150ms slow call: still head-of-line blocked", fastTook)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestPipelinedRequestNotStuckBehindHeldHandler: two requests arrive on
// one connection in one segment, right after the pool's only worker
// went idle; the first one's handler is held. The second must complete
// anyway. A reader that asks "is a worker idle?" sees the worker that
// is about to take the first request, spawns nothing, and leaves the
// second queued behind the held handler with the pool far below its
// bound.
func TestPipelinedRequestNotStuckBehindHeldHandler(t *testing.T) {
	release, giveUp := make(chan struct{}), make(chan struct{})
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("hold", func(p []byte) ([]byte, error) {
		select {
		case <-release:
		case <-giveUp:
		}
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{Name: "held", Capacity: 8}, reg)
	addr := startServerOn(t, &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}})
	t.Cleanup(func() { close(giveUp) }) // before the server's Close: a failed round leaves a handler held

	// The race needs the reader to decode the second frame before the
	// idle worker wakes; a fresh connection per round retries it.
	for round := 0; round < 20; round++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		read := func(wantID string) {
			t.Helper()
			var resp Response
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := ReadFrameCodec(conn, &resp); err != nil {
				t.Fatalf("round %d: waiting for response %q: %v", round, wantID, err)
			}
			if resp.ID != wantID || !resp.OK {
				t.Fatalf("round %d: got response %+v, want ok %q", round, resp, wantID)
			}
		}
		// One request through, so the pool has exactly one worker, idle.
		if err := WriteFrameCodec(conn, &Request{Op: OpInvoke, ID: "warm", Fn: "echo"}, CodecBinary); err != nil {
			t.Fatal(err)
		}
		read("warm")
		time.Sleep(time.Millisecond) // the worker is back at its receive

		burst, err := appendFrame(nil, &Request{Op: OpInvoke, ID: "held", Fn: "hold"})
		if err == nil {
			burst, err = appendFrame(burst, &Request{Op: OpInvoke, ID: "fast", Fn: "echo"})
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		read("fast") // while "held" is still in its handler
		release <- struct{}{}
		read("held")
		conn.Close()
	}
}

// TestMultiplexHammer is the -race correctness gate for multiplexing:
// N goroutines × M invokes over ONE client against a chaotic server
// (injected latency jitter and retryable errors). Every call must get
// an answer, and every successful echo must return its own payload —
// which proves responses are matched to the right requests even when
// they complete out of order.
func TestMultiplexHammer(t *testing.T) {
	const workers, calls = 16, 40
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{Name: "hammer", Capacity: 32}, reg)
	srv := &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
	// Errors and delay jitter, but no drops: every call must complete.
	srv.SetChaos(fault.NewChaos(fault.ChaosSpec{ErrProb: 0.2, DelayProb: 0.2, DelayMean: time.Millisecond, Seed: 11}))
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan string, workers*calls)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := fmt.Sprintf("payload-%d-%d", w, i)
				out, err := c.Invoke("echo", []byte(want))
				switch {
				case err == nil && string(out) != want:
					errs <- fmt.Sprintf("call %s answered with %q: response matched to the wrong request", want, out)
				case err != nil && !IsRetryable(err):
					errs <- fmt.Sprintf("call %s: unexpected terminal error %v", want, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestClientFailsFastAfterConnDeath: when the server dies, in-flight
// calls fail promptly and later calls fail immediately instead of
// hanging on a dead multiplexer.
func TestClientFailsFastAfterConnDeath(t *testing.T) {
	srv := echoServer(t, "mortal")
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}

	inFlight := make(chan error, 1)
	go func() {
		_, err := c.Invoke("slow", nil) // 150ms: still running when the server dies
		inFlight <- err
	}()
	time.Sleep(20 * time.Millisecond)
	srv.Shutdown(time.Millisecond) // grace far below the 150ms handler: force-cut

	select {
	case err := <-inFlight:
		if err == nil {
			t.Fatal("in-flight call succeeded after server death")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call hung after server death")
	}
	start := time.Now()
	if _, err := c.Invoke("echo", nil); err == nil {
		t.Fatal("call on dead connection succeeded")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("call on dead connection did not fail fast")
	}
	if !c.Broken() {
		t.Fatal("client not marked broken after connection death")
	}
}

// TestServerInflightGauge: wire_inflight must track requests currently
// being processed and return to zero when the server goes idle.
func TestServerInflightGauge(t *testing.T) {
	reg := faas.NewRegistry()
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	reg.Register("hold", func(p []byte) ([]byte, error) {
		started <- struct{}{}
		<-release
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{Name: "gaugebox", Capacity: 8}, reg)
	m := metrics.NewRegistry()
	srv := &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}, Metrics: m}
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const held = 3
	var wg sync.WaitGroup
	for i := 0; i < held; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Invoke("hold", nil); err != nil {
				t.Errorf("hold: %v", err)
			}
		}()
	}
	for i := 0; i < held; i++ {
		<-started // all three are inside their handlers
	}
	if got := m.Gauge("wire_inflight").Value(); got != held {
		t.Fatalf("wire_inflight = %v with %d requests processing", got, held)
	}
	close(release)
	wg.Wait()
	deadline := time.Now().Add(time.Second)
	for m.Gauge("wire_inflight").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("wire_inflight = %v after all requests finished", m.Gauge("wire_inflight").Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReliableClientPoolReuse: the pooled client must reuse warm
// connections instead of dialing per call, and count the reuses.
func TestReliableClientPoolReuse(t *testing.T) {
	srv := echoServer(t, "poolbox")
	addr := startServerOn(t, srv)
	m := metrics.NewRegistry()
	rc, err := NewReliableClient(ReliableConfig{
		Addrs:    []string{addr},
		PoolSize: 2,
		Metrics:  m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := rc.Invoke("echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// First two calls dial the two pool slots; the rest must reuse.
	if got := m.Counter("wire_conn_reuse_total").Value(); got != n-2 {
		t.Fatalf("wire_conn_reuse_total = %d, want %d", got, n-2)
	}
}

// TestReliableClientPoolRedialsBrokenSlot: a broken pooled connection
// is replaced in place, without poisoning the other slot.
func TestReliableClientPoolRedialsBrokenSlot(t *testing.T) {
	srv := echoServer(t, "redialbox")
	addr := startServerOn(t, srv)
	rc, err := NewReliableClient(ReliableConfig{
		Addrs:    []string{addr},
		PoolSize: 2,
		Retry:    retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 4; i++ {
		if _, err := rc.Invoke("echo", []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	// Sever both pooled connections out from under the client.
	for _, ep := range rc.snapshot().list {
		ep.mu.Lock()
		for _, c := range ep.conns {
			if c != nil {
				c.conn.Close()
			}
		}
		ep.mu.Unlock()
	}
	for i := 0; i < 4; i++ {
		if _, err := rc.Invoke("echo", []byte("b")); err != nil {
			t.Fatalf("invoke %d after severed pool: %v", i, err)
		}
	}
}

// TestDrainWaitsForPipelinedCalls: a drain must not cut a connection
// with several multiplexed calls in flight — all of them complete.
func TestDrainWaitsForPipelinedCalls(t *testing.T) {
	srv := echoServer(t, "drainmux")
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 4
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Invoke("slow", []byte("x")) // 150ms each, concurrent
			results <- err
		}()
	}
	time.Sleep(30 * time.Millisecond) // all n are in flight
	done := make(chan struct{})
	go func() {
		srv.Shutdown(2 * time.Second)
		close(done)
	}()
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("pipelined call lost during drain: %v", err)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown hung")
	}
}

// TestConnGoroutinesExitWithConn: every goroutine a connection starts —
// the client's reader, the server's connection handler and its workers
// — exits once the clients close and the server closes, so the
// goroutine count returns to where it started.
func TestConnGoroutinesExitWithConn(t *testing.T) {
	base := settledGoroutines()
	srv := echoServer(t, "leak")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	clients := make([]*Client, 4)
	for i := range clients {
		if clients[i], err = Dial(lis.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		for j := 0; j < 4; j++ { // concurrent calls grow each connection's worker pool
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				if _, err := c.Invoke("echo", []byte("x")); err != nil {
					t.Error(err)
				}
			}(c)
		}
	}
	wg.Wait()
	if n := runtime.NumGoroutine(); n <= base+2*len(clients) {
		t.Fatalf("%d goroutines with %d connections open, baseline %d: connections started none?", n, len(clients), base)
	}
	for _, c := range clients {
		c.Close()
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	waitCond(t, func() bool { return runtime.NumGoroutine() <= base })
}

// settledGoroutines is the goroutine count once those left over from
// earlier tests have exited: two samples 20ms apart agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
