package core

import (
	"testing"

	"continuum/internal/fault"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/trace"
	"continuum/internal/workload"
)

func TestRunStreamRecordsTrace(t *testing.T) {
	c := miniContinuum()
	c.Tracer = trace.New(0)
	jobs := []StreamJob{
		{Task: &task.Task{Name: "a", ScalarWork: 1e8, OutputBytes: 10}, Origin: c.Nodes[0].ID, Submit: 0},
		{Task: &task.Task{Name: "b", ScalarWork: 1e8, OutputBytes: 10}, Origin: c.Nodes[0].ID, Submit: 1},
	}
	st := c.RunStream(placement.GreedyLatency{}, jobs, nil)
	if st.Completed != 2 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	tasks := c.Tracer.Filter(trace.KindTask)
	if len(tasks) != 2 {
		t.Fatalf("task spans = %d, want 2", len(tasks))
	}
	for _, sp := range tasks {
		if sp.End <= sp.Start || sp.Err != "" {
			t.Fatalf("task span %+v, want a completed execution", sp)
		}
	}
}

// TestEngineSpanAttribution checks the observability contract of the
// unified engine: every attempt records a dispatch instant and stage and
// task spans, and retried attempts carry their attempt number so
// exported timelines (span file, Chrome trace) can attribute work to
// retries.
func TestEngineSpanAttribution(t *testing.T) {
	c := miniContinuum()
	c.Tracer = trace.New(0)
	jobs := []StreamJob{
		{Task: &task.Task{Name: "a", ScalarWork: 1e8, OutputBytes: 10}, Origin: c.Nodes[0].ID, Submit: 0},
		{Task: &task.Task{Name: "b", ScalarWork: 1e8, OutputBytes: 10}, Origin: c.Nodes[0].ID, Submit: 1},
	}
	if st := c.RunStream(placement.GreedyLatency{}, jobs, nil); st.Completed != 2 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if got := len(c.Tracer.Filter(trace.KindDispatch)); got != 2 {
		t.Fatalf("dispatch instants = %d, want 2", got)
	}
	if got := len(c.Tracer.Filter(trace.KindStage)); got != 2 {
		t.Fatalf("stage spans = %d, want 2", got)
	}
	for _, sp := range traceSpans(t, c.Tracer) {
		if sp.Attempt != 0 {
			t.Fatalf("fault-free run recorded attempt %d: %+v", sp.Attempt, sp)
		}
	}

	// Force retries on a single flaky candidate: some attempt must be
	// re-dispatched with a higher attempt number.
	c2 := miniContinuum()
	c2.Tracer = trace.New(0)
	inj := fault.NewInjector(c2.K, workload.NewRNG(2), 1e4)
	gwFault := inj.Attach("gw", fault.Spec{MeanUp: 0.3, MeanDown: 0.2})
	var retryJobs []StreamJob
	for i := 0; i < 30; i++ {
		retryJobs = append(retryJobs, StreamJob{
			Task:   &task.Task{Name: "r", ScalarWork: 2e9, OutputBytes: 10},
			Origin: c2.Nodes[0].ID,
			Submit: float64(i) * 0.2,
		})
	}
	st := c2.RunStreamReliable(placement.GreedyLatency{}, retryJobs,
		[]*node.Node{c2.Nodes[0]}, ReliableOptions{
			Faults:     map[int]*fault.Target{c2.Nodes[0].ID: gwFault},
			MaxRetries: 50,
		})
	if st.Retries == 0 {
		t.Fatal("workload produced no retries; attribution untestable")
	}
	maxAttempt := 0
	for _, e := range c2.Tracer.Filter(trace.KindDispatch) {
		if e.Attempt > maxAttempt {
			maxAttempt = e.Attempt
		}
	}
	if maxAttempt == 0 {
		t.Fatalf("%d retries happened but every dispatch has attempt 0", st.Retries)
	}
}

func TestRunStreamNilTracerSafe(t *testing.T) {
	c := miniContinuum() // Tracer nil
	jobs := []StreamJob{
		{Task: &task.Task{Name: "a", ScalarWork: 1e8}, Origin: c.Nodes[0].ID, Submit: 0},
	}
	if st := c.RunStream(placement.GreedyLatency{}, jobs, nil); st.Completed != 1 {
		t.Fatal("nil tracer broke the runner")
	}
}
