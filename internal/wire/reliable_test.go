package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/fault"
	"continuum/internal/metrics"
	"continuum/internal/retry"
)

// startServerOn is startServer with a caller-supplied server, so tests
// can attach chaos, metrics, or slow handlers before serving.
func startServerOn(t *testing.T, srv *Server) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return lis.Addr().String()
}

func echoServer(t *testing.T, name string) *Server {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("slow", func(p []byte) ([]byte, error) {
		time.Sleep(150 * time.Millisecond)
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{Name: name, Capacity: 8}, reg)
	return &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
}

func TestCallTimeoutAgainstHungPeer(t *testing.T) {
	// A listener that accepts and never answers: the call must surface a
	// timeout instead of blocking forever.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // swallow frames, never reply
		}
	}()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err = c.Invoke("echo", []byte("x"))
	if err == nil {
		t.Fatal("call against hung peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if !IsRetryable(err) {
		t.Fatal("timeout not classified retryable")
	}
}

// TestWedgedPeerWriteHonoursContextDeadline: a peer that accepts and
// never reads fills the socket buffers, so the request writes
// themselves block. Calls with no call timeout but a ctx deadline must
// still return at that deadline.
func TestWedgedPeerWriteHonoursContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	callWedgedPeer(t, ctx, context.DeadlineExceeded)
}

// TestWedgedPeerWriteHonoursCancel: the same wedged peer, but the calls
// carry only a cancellable ctx — no deadline anywhere — so cancelling it
// must cut the blocked request write.
func TestWedgedPeerWriteHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	callWedgedPeer(t, ctx, context.Canceled)
}

// callWedgedPeer makes six concurrent 1 MiB calls under ctx, on one
// client with no call timeout, to a listener that never reads, and
// requires each to fail with want within 1s.
func callWedgedPeer(t *testing.T, ctx context.Context, want error) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // never read
		}
	}()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 1<<20)
	const calls = 6
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.InvokeContext(ctx, "echo", payload)
			errs <- err
		}()
	}
	bound := time.After(time.Second)
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, want) {
				t.Fatalf("call %d against a wedged peer returned %v, want %v", i, err, want)
			}
		case <-bound:
			t.Fatalf("%d of %d calls still blocked 1s after their ctx ended", calls-i, calls)
		}
	}
}

// TestExpiringCallsLeaveSharedConnUp: calls whose ctx deadline passes
// while they write, or just before, share one connection with calls
// that have no deadline. Only the expiring calls may fail; the
// connection and every other call must carry on.
func TestExpiringCallsLeaveSharedConnUp(t *testing.T) {
	addr := startServerOn(t, echoServer(t, "shared"))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(5 * time.Second) // the plain calls' deadline is far off
	payload := make([]byte, 4<<10)
	stop := make(chan struct{})
	var expiring sync.WaitGroup
	for i := 0; i < 2; i++ {
		expiring.Add(1)
		go func(i int) {
			defer expiring.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(j%8)*5*time.Microsecond)
				_, err := c.InvokeContext(ctx, "echo", payload)
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("expiring call: %v, want success or DeadlineExceeded", err)
					return
				}
			}
		}(i)
	}
	var plain sync.WaitGroup
	for i := 0; i < 4; i++ {
		plain.Add(1)
		go func() {
			defer plain.Done()
			for j := 0; j < 300; j++ {
				if _, err := c.Invoke("echo", payload); err != nil {
					t.Errorf("call %d beside expiring calls: %v", j, err)
					return
				}
			}
		}()
	}
	plain.Wait()
	close(stop)
	expiring.Wait()
	if c.Broken() {
		t.Fatal("expiring calls severed the shared connection")
	}
}

func TestInvokeContextDeadline(t *testing.T) {
	srv := echoServer(t, "slowbox")
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.InvokeContext(ctx, "slow", nil); err == nil {
		t.Fatal("slow invoke beat a 30ms deadline")
	}
	// A later call without a deadline must not inherit the old one.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Invoke("echo", []byte("ok")); err != nil {
		t.Fatalf("fresh connection failed: %v", err)
	}
}

func TestRetryablePropagation(t *testing.T) {
	// An endpoint with capacity 1 and a tiny queue wait rejects the second
	// concurrent invoke with ErrOverloaded; the client must see a
	// RemoteError marked retryable.
	reg := faas.NewRegistry()
	release := make(chan struct{})
	reg.Register("hold", func(p []byte) ([]byte, error) {
		<-release
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "tight", Capacity: 1, QueueWait: 10 * time.Millisecond,
	}, reg)
	srv := &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
	addr := startServerOn(t, srv)

	c1, _ := Dial(addr)
	defer c1.Close()
	c2, _ := Dial(addr)
	defer c2.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c1.Invoke("hold", nil)
	}()
	time.Sleep(20 * time.Millisecond) // let the holder take the slot
	_, err := c2.Invoke("hold", nil)
	close(release)
	wg.Wait()
	if err == nil {
		t.Fatal("overloaded invoke succeeded")
	}
	var re *RemoteError
	if !errors.As(err, &re) || !re.Retryable {
		t.Fatalf("overload not marked retryable: %v", err)
	}
	if !IsRetryable(err) {
		t.Fatal("IsRetryable disagrees with RemoteError.Retryable")
	}
	// Application errors must NOT be retryable.
	if _, err := c2.Invoke("ghost", nil); err == nil || IsRetryable(err) {
		t.Fatalf("unknown-function error classified retryable: %v", err)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	srv := echoServer(t, "drainbox")
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		out []byte
		err error
	}
	got := make(chan result, 1)
	go func() {
		out, err := c.Invoke("slow", []byte("inflight"))
		got <- result{out, err}
	}()
	time.Sleep(30 * time.Millisecond) // the slow invoke is now mid-flight

	done := make(chan struct{})
	go func() {
		srv.Shutdown(2 * time.Second)
		close(done)
	}()

	r := <-got
	if r.err != nil || string(r.out) != "inflight" {
		t.Fatalf("in-flight request lost during shutdown: %q, %v", r.out, r.err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown did not return after drain")
	}
	// After the drain the connection is closed and new dials fail.
	if _, err := c.Invoke("echo", nil); err == nil {
		t.Fatal("connection survived shutdown")
	}
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestShutdownForceClosesAfterGrace(t *testing.T) {
	srv := echoServer(t, "forcebox")
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Invoke("slow", nil) // 150ms handler outlives a 10ms grace
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	srv.Shutdown(10 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("forced shutdown took %v", elapsed)
	}
}

func TestChaosErrorInjection(t *testing.T) {
	srv := echoServer(t, "chaosbox")
	m := metrics.NewRegistry()
	srv.Metrics = m
	srv.SetChaos(fault.NewChaos(fault.ChaosSpec{ErrProb: 1, Seed: 1}))
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Invoke("echo", []byte("x"))
	if err == nil {
		t.Fatal("chaos error not injected")
	}
	var re *RemoteError
	if !errors.As(err, &re) || !re.Retryable {
		t.Fatalf("chaos error not retryable: %v", err)
	}
	if !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("err = %v", err)
	}
	if got := m.Counter(metrics.Label("wire_chaos_injections_total", "kind", "error")).Value(); got == 0 {
		t.Fatal("chaos injection not counted")
	}
}

func TestChaosDropSeversConnection(t *testing.T) {
	srv := echoServer(t, "dropbox")
	srv.SetChaos(fault.NewChaos(fault.ChaosSpec{DropProb: 1, Seed: 1}))
	addr := startServerOn(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(time.Second)
	_, err = c.Invoke("echo", []byte("x"))
	if err == nil {
		t.Fatal("dropped request returned a response")
	}
	if !IsRetryable(err) {
		t.Fatalf("connection drop not retryable: %v", err)
	}
}

func TestReliableClientRetriesThroughChaos(t *testing.T) {
	srv := echoServer(t, "flaky")
	// ~40% injected errors: plain clients fail often, the reliable client
	// must always get through within its attempt budget.
	srv.SetChaos(fault.NewChaos(fault.ChaosSpec{ErrProb: 0.4, Seed: 7}))
	addr := startServerOn(t, srv)
	m := metrics.NewRegistry()
	rc, err := NewReliableClient(ReliableConfig{
		Addrs: []string{addr},
		Retry: retry.Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		// Error-rate chaos at 40% would trip default breakers mid-test;
		// keep them out of the way so this test isolates retry behavior.
		Breaker:     retry.BreakerConfig{FailureThreshold: 1 << 30},
		CallTimeout: time.Second,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 50; i++ {
		out, err := rc.Invoke("echo", []byte("p"))
		if err != nil || string(out) != "p" {
			t.Fatalf("invoke %d: %q, %v", i, out, err)
		}
	}
	if m.Counter("wire_client_retries_total").Value() == 0 {
		t.Fatal("no retries recorded under 40% chaos")
	}
}

func TestReliableClientFailsOverToHealthyEndpoint(t *testing.T) {
	bad := echoServer(t, "bad")
	bad.SetChaos(fault.NewChaos(fault.ChaosSpec{ErrProb: 1, Seed: 3}))
	badAddr := startServerOn(t, bad)
	good := echoServer(t, "good")
	goodAddr := startServerOn(t, good)

	m := metrics.NewRegistry()
	rc, err := NewReliableClient(ReliableConfig{
		Addrs:       []string{badAddr, goodAddr},
		Retry:       retry.Policy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		Breaker:     retry.BreakerConfig{FailureThreshold: 3, Cooldown: 10 * time.Second},
		CallTimeout: time.Second,
		Metrics:     m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 30; i++ {
		out, err := rc.Invoke("echo", []byte("q"))
		if err != nil || string(out) != "q" {
			t.Fatalf("invoke %d: %q, %v", i, out, err)
		}
	}
	// The bad endpoint's breaker must have tripped and be visible in
	// the metrics the daemon would export.
	states := rc.BreakerStates()
	if states[badAddr] != retry.Open {
		t.Fatalf("bad endpoint breaker = %v, want open", states[badAddr])
	}
	if states[goodAddr] != retry.Closed {
		t.Fatalf("good endpoint breaker = %v, want closed", states[goodAddr])
	}
	if m.Gauge(metrics.Label("wire_breaker_state", "ep", badAddr)).Value() != float64(retry.Open) {
		t.Fatal("breaker gauge not updated")
	}
	if m.Counter(metrics.Label("wire_breaker_trips_total", "ep", badAddr)).Value() == 0 {
		t.Fatal("breaker trip not counted")
	}
	if m.Counter("wire_client_failovers_total").Value() == 0 {
		t.Fatal("no failovers recorded")
	}
}

func TestReliableClientSurvivesEndpointDeath(t *testing.T) {
	dying := echoServer(t, "dying")
	dyingAddr := startServerOn(t, dying)
	stable := echoServer(t, "stable")
	stableAddr := startServerOn(t, stable)

	rc, err := NewReliableClient(ReliableConfig{
		Addrs:       []string{dyingAddr, stableAddr},
		Retry:       retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Breaker:     retry.BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Second},
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i := 0; i < 40; i++ {
		if i == 10 {
			dying.Close() // kill one endpoint mid-run
		}
		out, err := rc.Invoke("echo", []byte("r"))
		if err != nil || string(out) != "r" {
			t.Fatalf("invoke %d after death: %q, %v", i, out, err)
		}
	}
}

func TestReliableClientAllBreakersOpen(t *testing.T) {
	// No server listening anywhere: every attempt fails, breakers trip,
	// and the final error is informative rather than a hang.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // nothing accepts here any more
	rc, err := NewReliableClient(ReliableConfig{
		Addrs:   []string{addr},
		Retry:   retry.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Breaker: retry.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, err = rc.Invoke("echo", nil)
	if err == nil {
		t.Fatal("invoke against dead federation succeeded")
	}
	if rc.BreakerStates()[addr] != retry.Open {
		t.Fatalf("breaker = %v, want open", rc.BreakerStates()[addr])
	}
	// With the breaker open and a long cooldown, the next call must fail
	// fast with ErrAllBreakersOpen after exhausting attempts.
	_, err = rc.Invoke("echo", nil)
	if !errors.Is(err, ErrAllBreakersOpen) {
		t.Fatalf("err = %v, want ErrAllBreakersOpen", err)
	}
}
