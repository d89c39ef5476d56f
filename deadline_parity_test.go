package continuum_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"continuum/internal/core"
	"continuum/internal/faas"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/trace"
)

// TestDeadlineParitySimAndLive asserts the one-semantics claim for
// per-task deadlines: the simulated engine (Options.TaskDeadline,
// virtual time) and the live faas path (EndpointConfig.ExecTimeout, wall
// clock) both cut off an overrunning task, attribute the miss, and keep
// serving afterwards.
func TestDeadlineParitySimAndLive(t *testing.T) {
	checkGoroutines(t)
	// Simulated: a ~0.1s task against a 1ms deadline misses every
	// attempt; the trace attributes each miss to the task.
	c := core.New()
	gw := node.Catalog()["gateway"]
	gw.Name = "gw"
	c.AddNode(gw)
	c.Tracer = trace.New(0)
	jobs := []core.StreamJob{{
		Task:   &task.Task{Name: "overrun", ScalarWork: 2.5e8, OutputBytes: 10},
		Origin: c.Nodes[0].ID,
	}}
	st := c.RunStream(placement.GreedyLatency{}, jobs, nil,
		core.Options{MaxRetries: 1, TaskDeadline: 0.001})
	if st.Completed != 0 || st.DeadlineMisses == 0 {
		t.Fatalf("sim: completed=%d misses=%d, want 0 completed with misses",
			st.Completed, st.DeadlineMisses)
	}
	attributed := false
	for _, e := range c.Tracer.Filter(trace.KindFailure) {
		if e.Name == "overrun" && e.Err == "deadline exceeded" {
			attributed = true
		}
	}
	if !attributed {
		t.Fatal("sim: no deadline-exceeded trace record naming the task")
	}

	// Live: the same cutoff through ExecTimeout surfaces as
	// context.DeadlineExceeded, and the endpoint stays healthy.
	reg := faas.NewRegistry()
	reg.Register("overrun", func(p []byte) ([]byte, error) {
		time.Sleep(100 * time.Millisecond)
		return p, nil
	})
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "live", Capacity: 2, ExecTimeout: 10 * time.Millisecond,
	}, reg)
	_, err := ep.Invoke("overrun", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("live: err = %v, want context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "overrun") {
		t.Fatalf("live: timeout error does not name the function: %v", err)
	}
	if out, err := ep.Invoke("echo", []byte("on-time")); err != nil || string(out) != "on-time" {
		t.Fatalf("live: endpoint unhealthy after deadline miss: %q, %v", out, err)
	}
}
