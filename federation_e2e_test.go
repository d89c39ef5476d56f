package continuum_test

// Federation end-to-end gate (`make federation-smoke`): a
// continuum-router fronting three daemons survives one hard kill and
// one graceful drain mid-run with zero accepted requests lost, and the
// endpoints op reflects membership changes within one heartbeat
// interval. Every piece is the real composition the binaries build:
// daemons join through federation.Agent over the wire protocol, the
// router routes with a policy through a dynamic ReliableClient, and
// the client talks to the router alone.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/federation"
	"continuum/internal/metrics"
	"continuum/internal/retry"
	"continuum/internal/wire"
)

// fedDaemon is one in-process continuumd joined to a router.
type fedDaemon struct {
	name  string
	addr  string
	ep    *faas.Endpoint
	srv   *wire.Server
	agent *federation.Agent
}

func startFedDaemon(t *testing.T, name, routerAddr string) *fedDaemon {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{Name: name, Capacity: 8, WarmTTL: time.Minute}, reg)
	srv := &wire.Server{Invoker: ep, Batcher: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}, Name: name}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	d := &fedDaemon{name: name, addr: lis.Addr().String(), ep: ep, srv: srv}
	d.agent = federation.NewAgent(federation.AgentConfig{
		RouterAddr: routerAddr, Name: name, Advertise: d.addr,
		Endpoint: ep,
	})
	d.agent.Start()
	t.Cleanup(d.agent.Stop)
	return d
}

// memberStates polls the endpoints op through the wire client until the
// fleet snapshot satisfies ok or the deadline passes, returning the
// final snapshot either way.
func memberStates(t *testing.T, c *wire.Client, deadline time.Duration, ok func([]wire.MemberStatus) bool) []wire.MemberStatus {
	t.Helper()
	var members []wire.MemberStatus
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		var err error
		if members, err = c.Endpoints(); err == nil && ok(members) {
			return members
		}
		time.Sleep(2 * time.Millisecond)
	}
	return members
}

// TestE2EFederationChurnNoRequestLost is the federated control-plane
// claim: a router fronting three daemons, one killed mid-run (server
// down, heartbeats stop, no goodbye) and one gracefully drained
// (cordon + drain announce, in-flight work finishing), still completes
// every accepted invocation — and the membership table the endpoints op
// serves tracks both departures on the heartbeat schedule.
func TestE2EFederationChurnNoRequestLost(t *testing.T) {
	checkGoroutines(t)
	const interval = 50 * time.Millisecond
	m := metrics.NewRegistry()
	rt, err := federation.NewRouter(federation.RouterConfig{
		Registry: federation.Config{HeartbeatInterval: interval},
		Policy:   federation.LeastLoadedPolicy{},
		Client: wire.ReliableConfig{
			Retry:       retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
			Breaker:     retry.BreakerConfig{FailureThreshold: 3, Cooldown: 50 * time.Millisecond},
			CallTimeout: 2 * time.Second,
		},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtSrv := &wire.Server{Invoker: rt, Ops: rt, Name: "router", Metrics: m}
	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rtSrv.Serve(rlis)
	t.Cleanup(rtSrv.Close)
	routerAddr := rlis.Addr().String()

	d1 := startFedDaemon(t, "d1", routerAddr)
	d2 := startFedDaemon(t, "d2", routerAddr)
	d3 := startFedDaemon(t, "d3", routerAddr)
	_ = d1

	admin, err := wire.Dial(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	members := memberStates(t, admin, 5*time.Second, func(ms []wire.MemberStatus) bool {
		return len(ms) == 3
	})
	if len(members) != 3 {
		t.Fatalf("fleet never assembled: %+v", members)
	}

	// The client talks to the router alone; client-side retries cover the
	// window where the router itself reports a retryable routing failure.
	rc, err := wire.NewReliableClient(wire.ReliableConfig{
		Addrs:       []string{routerAddr},
		Retry:       retry.Policy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	const total, workers = 240, 8
	var wg sync.WaitGroup
	var failures []string
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/workers; i++ {
				switch {
				case w == 0 && i == total/workers/3:
					// Hard kill: the server dies and the heartbeats stop, no
					// goodbye. The router must breaker/retry around the corpse
					// now and expire it from membership on the lease schedule.
					d2.srv.Close()
					d2.agent.Stop()
				case w == 1 && i == total/workers/2:
					// Graceful drain: the continuumd shutdown flow — cordon the
					// endpoint, announce the drain. In-flight work finishes;
					// new work must route elsewhere immediately.
					d3.ep.SetCordon(true)
					if err := d3.agent.Leave(true); err != nil {
						t.Errorf("drain announce: %v", err)
					}
				}
				want := fmt.Sprintf("fed-%d-%d", w, i)
				out, err := rc.Invoke("echo", []byte(want))
				if err != nil || string(out) != want {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: %q, %v", want, out, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(failures) != 0 {
		t.Fatalf("%d/%d invocations lost during membership churn:\n%s",
			len(failures), total, strings.Join(failures, "\n"))
	}

	// Membership visibility: the drain must be listed within one
	// heartbeat interval of the announce (it was synchronous, so it is
	// already there), and the killed daemon must reach suspect-or-gone
	// within one interval past its suspicion horizon, then disappear
	// entirely by the expiry horizon.
	members = memberStates(t, admin, interval, func(ms []wire.MemberStatus) bool {
		for _, mb := range ms {
			if mb.Name == "d3" && (mb.State == federation.StateDraining || mb.Draining) {
				return true
			}
		}
		// d3 may also have expired already if the run outlasted its lease.
		for _, mb := range ms {
			if mb.Name == "d3" {
				return false
			}
		}
		return true
	})
	for _, mb := range members {
		if mb.Name == "d3" && mb.State == federation.StateAlive && !mb.Draining {
			t.Fatalf("drained member still listed alive one interval after the announce: %+v", members)
		}
	}
	members = memberStates(t, admin, 6*interval, func(ms []wire.MemberStatus) bool {
		for _, mb := range ms {
			if mb.Name == "d2" {
				return false
			}
		}
		return true
	})
	for _, mb := range members {
		if mb.Name == "d2" {
			t.Fatalf("killed member still in membership past the expiry horizon: %+v", members)
		}
	}

	// Surviving capacity still serves.
	if out, err := rc.Invoke("echo", []byte("after-churn")); err != nil || string(out) != "after-churn" {
		t.Fatalf("invoke after churn: %q, %v", out, err)
	}

	// The operator view: federation metrics counted the lifecycle.
	var sb strings.Builder
	m.WritePrometheus(&sb)
	exp := sb.String()
	for _, want := range []string{"federation_members", "federation_routes_total", "federation_heartbeats_total"} {
		if !strings.Contains(exp, want) {
			t.Fatalf("metrics exposition missing %s:\n%s", want, exp)
		}
	}
	if m.Counter("federation_registers_total").Value() < 3 {
		t.Fatalf("federation_registers_total = %v, want >= 3", m.Counter("federation_registers_total").Value())
	}
	if m.Counter("federation_routes_total").Value() == 0 {
		t.Fatal("router routed nothing according to federation_routes_total")
	}
}
