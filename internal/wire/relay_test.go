package wire

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/metrics"
)

// relayInvoker is a minimal router: it forwards every invoke through
// InvokeRouted and remembers where each payload it was handed, and each
// result it returned, lives (which also keeps those buffers alive, so
// an address can only repeat if the buffer was recycled).
type relayInvoker struct {
	rc      *ReliableClient
	mu      sync.Mutex
	in, out []*byte
}

func (ri *relayInvoker) Invoke(fn string, p []byte) ([]byte, error) {
	return ri.InvokeContext(context.Background(), fn, p)
}

func (ri *relayInvoker) InvokeContext(ctx context.Context, fn string, p []byte) ([]byte, error) {
	out, err := ri.rc.InvokeRouted(ctx, fn, p, nil)
	ri.mu.Lock()
	ri.in = append(ri.in, &p[0])
	if err == nil {
		ri.out = append(ri.out, &out[0])
	}
	ri.mu.Unlock()
	return out, err
}

// relayThrough serves a relayInvoker over a ReliableClient built from
// cfg and returns it with a client dialed to it.
func relayThrough(t *testing.T, cfg ReliableConfig) (*relayInvoker, *relayCaller) {
	t.Helper()
	rc, err := NewReliableClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	ri := &relayInvoker{rc: rc}
	srv := &Server{Invoker: ri, Metrics: metrics.NewRegistry()}
	c, err := Dial(startServerOn(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return ri, &relayCaller{c, srv}
}

// relayCaller calls through a relay one call at a time.
type relayCaller struct {
	c   *Client
	srv *Server
}

// echo sends a 64 KiB payload of b to fn, checks the answer against
// want, and waits until the relay has finished with the call, so the
// next call finds whatever it gave back.
func (rc *relayCaller) echo(t *testing.T, fn string, b byte, want func([]byte) []byte) {
	t.Helper()
	p := bytes.Repeat([]byte{b}, 64<<10)
	if out, err := rc.c.Invoke(fn, p); err != nil || !bytes.Equal(out, want(p)) {
		t.Fatalf("%d-byte answer, %v", len(out), err)
	}
	for rc.srv.Metrics.Gauge("wire_inflight").Value() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

func same(p []byte) []byte { return p }

// TestRelayRecyclesCleanRelays: a relay's second large call arrives in
// the buffer its first one did, and the daemon's second answer in the
// buffer of its first, because a clean relay gives both back to their
// connections once its response is written.
func TestRelayRecyclesCleanRelays(t *testing.T) {
	ri, rc := relayThrough(t, ReliableConfig{Addrs: []string{startServerOn(t, echoServer(t, "d"))}, PoolSize: 1})
	rc.echo(t, "echo", 1, same)
	rc.echo(t, "echo", 2, same)
	if ri.in[0] != ri.in[1] {
		t.Error("the second request was not read into the first one's recycled buffer")
	}
	if ri.out[0] != ri.out[1] {
		t.Error("the second answer was not read into the first one's recycled buffer")
	}
}

// TestRelayKeepsWhatItMustNot: a relay that launched a hedge arm
// recycles nothing (the losing arm may still be sending the payload),
// and a daemon handler owns every payload it is given.
func TestRelayKeepsWhatItMustNot(t *testing.T) {
	t.Run("hedged", func(t *testing.T) {
		a := startServerOn(t, slowServer(t, "a", 20*time.Millisecond))
		b := startServerOn(t, slowServer(t, "b", 20*time.Millisecond))
		ri, rc := relayThrough(t, ReliableConfig{
			Addrs: []string{a, b}, PoolSize: 1,
			Hedge: HedgeConfig{Enabled: true, Delay: time.Millisecond},
		})
		rc.echo(t, "work", 'a', bytes.ToUpper)
		rc.echo(t, "work", 'b', bytes.ToUpper)
		if ri.in[0] == ri.in[1] || ri.out[0] == ri.out[1] {
			t.Error("a hedged relay recycled a buffer")
		}
		if launched, _ := ri.rc.HedgeStats(); launched < 2 {
			t.Fatalf("%d hedge arms launched, want 2", launched)
		}
	})
	t.Run("daemon", func(t *testing.T) {
		reg := faas.NewRegistry()
		var seen []*byte
		reg.Register("keep", func(p []byte) ([]byte, error) {
			seen = append(seen, &p[0]) // capacity 1: calls run one at a time
			return p, nil
		})
		ep := faas.NewEndpoint(faas.EndpointConfig{Name: "d", Capacity: 1}, reg)
		srv := &Server{Invoker: ep, Metrics: metrics.NewRegistry()}
		c, err := Dial(startServerOn(t, srv))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rc := &relayCaller{c, srv}
		rc.echo(t, "keep", 1, same)
		rc.echo(t, "keep", 2, same)
		if seen[0] == seen[1] {
			t.Error("a daemon handler's payload buffer was reused")
		}
	})
}
