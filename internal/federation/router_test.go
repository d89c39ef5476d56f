package federation

// Router integration tests over real wire servers: daemons join via
// Agent, the router routes invocations across them, and churn — drain
// racing an in-flight route, a member dying mid-fleet, agents
// re-registering after a router restart wiped membership — resolves
// without losing accepted requests.

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/retry"
	"continuum/internal/wire"
)

// daemonT is one in-process continuumd for router tests.
type daemonT struct {
	name  string
	addr  string
	ep    *faas.Endpoint
	srv   *wire.Server
	agent *Agent
}

// startDaemon boots an in-process daemon serving "who" (returns its own
// name) and "slow" (sleeps, then echoes) and joins it to the router at
// routerAddr; it heartbeats at the cadence the router grants.
func startDaemon(t *testing.T, name, routerAddr string) *daemonT {
	t.Helper()
	d := serveDaemon(t, name)
	d.join(t, routerAddr)
	return d
}

// serveDaemon boots the daemon's wire server without joining a router.
func serveDaemon(t *testing.T, name string) *daemonT {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("who", func([]byte) ([]byte, error) { return []byte(name), nil })
	reg.Register("slow", func(p []byte) ([]byte, error) {
		time.Sleep(300 * time.Millisecond)
		return p, nil
	})
	ep := faas.NewEndpoint(faas.EndpointConfig{Name: name, Capacity: 8}, reg)
	srv := &wire.Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return &daemonT{name: name, addr: lis.Addr().String(), ep: ep, srv: srv}
}

// join starts the daemon's agent against the router at routerAddr.
func (d *daemonT) join(t *testing.T, routerAddr string) {
	d.agent = NewAgent(AgentConfig{
		RouterAddr: routerAddr,
		Name:       d.name,
		Advertise:  d.addr,
		Endpoint:   d.ep,
	})
	d.agent.Start()
	t.Cleanup(func() { d.agent.Leave(false) })
}

// startRouter boots a router process: registry+policy behind a wire
// server listening on a real socket.
func startRouter(t *testing.T, policy Policy, interval time.Duration) (*Router, string) {
	t.Helper()
	rt, err := NewRouter(RouterConfig{
		Registry: Config{HeartbeatInterval: interval},
		Policy:   policy,
		Client: wire.ReliableConfig{
			Retry:       retry.Policy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
			CallTimeout: 5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	srv := &wire.Server{Invoker: rt, Ops: rt, Name: "router"}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return rt, lis.Addr().String()
}

// waitMembers blocks until the router sees want members (any state) or
// the deadline passes.
func waitMembers(t *testing.T, rt *Router, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Registry().Len() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("router never saw %d members (have %d)", want, rt.Registry().Len())
}

// TestRouterRoutesAcrossFleet: daemons join through the wire protocol,
// and client invocations through the router reach them.
func TestRouterRoutesAcrossFleet(t *testing.T) {
	const interval = 50 * time.Millisecond
	rt, routerAddr := startRouter(t, LeastLoadedPolicy{}, interval)
	startDaemon(t, "d1", routerAddr)
	startDaemon(t, "d2", routerAddr)
	waitMembers(t, rt, 2)

	c, err := wire.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Idle fleet: ties break deterministically, calls just work.
	for i := 0; i < 10; i++ {
		out, err := c.Invoke("who", nil)
		if err != nil {
			t.Fatalf("invoke %d through router: %v", i, err)
		}
		if string(out) != "d1" && string(out) != "d2" {
			t.Fatalf("invoke %d served by %q", i, out)
		}
	}
	// Load up d1 (the idle tie-break winner) with a slow call; once a
	// heartbeat advertises its in-flight work, least-loaded must steer
	// new calls to d2.
	slow := make(chan error, 1)
	go func() {
		_, err := c.Invoke("slow", nil)
		slow <- err
	}()
	time.Sleep(3 * interval) // slow call lands + at least one heartbeat reports it
	out, err := c.Invoke("who", nil)
	if err != nil || string(out) != "d2" {
		t.Fatalf("invoke under load = %q, %v; want diverted to d2", out, err)
	}
	if err := <-slow; err != nil {
		t.Fatalf("slow call: %v", err)
	}
	// The endpoints op reports both, alive.
	members, err := c.Endpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 || members[0].State != StateAlive || members[1].State != StateAlive {
		t.Fatalf("endpoints = %+v, want 2 alive members", members)
	}
	// And list forwards to the fleet.
	names, err := c.List()
	if err != nil || len(names) != 2 {
		t.Fatalf("list through router = %v, %v", names, err)
	}
}

// TestRouterHashAffinity: under the hash policy the same payload keeps
// landing on the same daemon.
func TestRouterHashAffinity(t *testing.T) {
	const interval = 50 * time.Millisecond
	rt, routerAddr := startRouter(t, HashPolicy{}, interval)
	startDaemon(t, "d1", routerAddr)
	startDaemon(t, "d2", routerAddr)
	startDaemon(t, "d3", routerAddr)
	waitMembers(t, rt, 3)

	c, err := wire.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, err := c.Invoke("who", []byte("sticky-key"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		out, err := c.Invoke("who", []byte("sticky-key"))
		if err != nil || string(out) != string(first) {
			t.Fatalf("invoke %d = %q, %v; want stable %q", i, out, err, first)
		}
	}
}

// TestDrainRacesInFlightRoute: a member drains while a routed
// invocation is executing on it. The in-flight call must complete (its
// connection survives the drain), new calls must route elsewhere, and
// nothing is lost.
func TestDrainRacesInFlightRoute(t *testing.T) {
	const interval = 50 * time.Millisecond
	rt, routerAddr := startRouter(t, LeastLoadedPolicy{}, interval)
	d1 := startDaemon(t, "d1", routerAddr)
	startDaemon(t, "d2", routerAddr)
	waitMembers(t, rt, 2)

	c, err := wire.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Launch a slow call; least-loaded may pick either daemon, so race
	// the drain against whichever it is — the invariant under test is
	// "accepted work completes", not placement.
	done := make(chan error, 1)
	go func() {
		out, err := c.Invoke("slow", []byte("in-flight"))
		if err == nil && string(out) != "in-flight" {
			err = errInvokeCorrupt
		}
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the route land and start executing

	// Drain d1 the way continuumd's shutdown does: cordon, then announce.
	d1.ep.SetCordon(true)
	if err := d1.agent.Leave(true); err != nil {
		t.Fatalf("drain announce: %v", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("in-flight call racing the drain: %v", err)
	}
	// Every new call lands on d2 now.
	for i := 0; i < 10; i++ {
		out, err := c.Invoke("who", nil)
		if err != nil || string(out) != "d2" {
			t.Fatalf("post-drain invoke %d = %q, %v; want d2", i, out, err)
		}
	}
}

var errInvokeCorrupt = &wire.RemoteError{Msg: "corrupt echo"}

// TestAgentReregistersAfterExpiry: the router expires a silenced member;
// when its heartbeats resume they are rejected as unknown, and the
// agent must re-register — rejoining with a fresh generation, no
// operator involved.
func TestAgentReregistersAfterExpiry(t *testing.T) {
	const interval = 30 * time.Millisecond
	rt, routerAddr := startRouter(t, LeastLoadedPolicy{}, interval)
	startDaemon(t, "d1", routerAddr)
	waitMembers(t, rt, 1)
	gen1 := rt.Registry().Snapshot()[0].Generation

	// Silence the member from the router's point of view by wiping
	// membership out from under it (a router restart looks exactly like
	// this): the next heartbeat is rejected, the agent re-registers.
	rt.Registry().mu.Lock()
	rt.Registry().members = map[string]*member{}
	rt.Registry().mu.Unlock()
	rt.sync()

	waitMembers(t, rt, 1)
	gen2 := rt.Registry().Snapshot()[0].Generation
	if gen2 <= gen1 {
		t.Fatalf("agent rejoined with generation %d, want newer than %d", gen2, gen1)
	}
	// And traffic flows again.
	c, err := wire.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if out, err := c.Invoke("who", nil); err != nil || string(out) != "d1" {
		t.Fatalf("invoke after re-registration = %q, %v", out, err)
	}
}

// TestRouterCloseLeavesNoGoroutines: a router fronting two daemons
// routes concurrent calls; the agents then stop without leaving, so the
// router still holds pooled connections to both daemons. Closing the
// client and the router must bring the goroutine count back to where it
// was with only the daemons serving — the sweep loop, the reliable
// client's connections and the daemons' side of them all exit — and
// closing the daemons brings it back to the start.
func TestRouterCloseLeavesNoGoroutines(t *testing.T) {
	// The lease outlives the test, so no expiry sweep drops a member
	// and closes its connections on the router's behalf.
	const interval = time.Second
	base := settledGoroutines()
	daemons := []*daemonT{serveDaemon(t, "d1"), serveDaemon(t, "d2")}
	serving := settledGoroutines()

	rt, err := NewRouter(RouterConfig{Registry: Config{HeartbeatInterval: interval}, Policy: HashPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	rtSrv := &wire.Server{Invoker: rt, Ops: rt, Name: "router"}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- rtSrv.Serve(lis) }()
	for _, d := range daemons {
		d.join(t, lis.Addr().String())
	}
	waitMembers(t, rt, 2)

	c, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Invoke("who", []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	c.Close()
	for _, d := range daemons {
		d.agent.Stop()
	}
	if rt.Registry().Len() != 2 {
		t.Fatalf("router holds %d members after the agents stopped, want 2", rt.Registry().Len())
	}
	rt.Close()
	rtSrv.Close()
	if err := <-served; err != nil {
		t.Fatalf("router Serve: %v", err)
	}
	waitGoroutines(t, serving)
	for _, d := range daemons {
		d.srv.Close()
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits up to 2s for the goroutine count to fall to want,
// failing with every goroutine's stack if it does not.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
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
