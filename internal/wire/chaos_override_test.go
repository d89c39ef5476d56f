package wire

import (
	"sync"
	"testing"
	"time"

	"continuum/internal/fault"
)

// TestSetChaosOverridesAndRestores: SetChaos installs an injector on a
// running server, and SetChaos(nil) restores clean service (the scenario
// live backend relies on both directions).
func TestSetChaosOverridesAndRestores(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Invoke("echo", []byte("hi")); err != nil {
		t.Fatal(err)
	}

	srv.SetChaos(fault.NewChaos(fault.ChaosSpec{ErrProb: 1, Seed: 1}))
	if _, err := c.Invoke("echo", []byte("hi")); err == nil {
		t.Fatal("chaos err=1 did not fail the call")
	}

	srv.SetChaos(nil)
	if _, err := c.Invoke("echo", []byte("hi")); err != nil {
		t.Fatalf("SetChaos(nil) did not restore service: %v", err)
	}
}

// TestSetChaosConcurrent hammers SetChaos while calls are in flight;
// meaningful under -race (scripted chaos flips race with dispatch).
func TestSetChaosConcurrent(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan struct{})
	var flips sync.WaitGroup
	flips.Add(1)
	go func() {
		defer flips.Done()
		delay := fault.NewChaos(fault.ChaosSpec{DelayProb: 1, DelayMean: time.Microsecond, Seed: 1})
		for {
			select {
			case <-done:
				return
			default:
			}
			srv.SetChaos(delay)
			srv.SetChaos(nil)
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := c.Invoke("echo", []byte("x")); err != nil {
			t.Fatalf("call %d failed under delay-only chaos: %v", i, err)
		}
	}
	close(done)
	flips.Wait()
}
