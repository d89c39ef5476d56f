package core

import (
	"testing"

	"continuum/internal/fault"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

func reliableDAG() *task.DAG {
	// Chain of 6 half-second (on gateway) tasks: long enough for faults
	// to land mid-run.
	d := task.NewDAG("chain6")
	for i := 0; i < 6; i++ {
		d.AddTask("t", 1.25e9, 1e3)
	}
	for i := 0; i+1 < 6; i++ {
		d.Connect(task.ID(i), task.ID(i+1), -1)
	}
	return d
}

func gwSchedule(d *task.DAG) placement.Schedule {
	assign := make(map[task.ID]int, d.N())
	for i := 0; i < d.N(); i++ {
		assign[task.ID(i)] = 0 // everything on the gateway
	}
	return placement.Schedule{Algorithm: "pin-gw", Assign: assign}
}

func TestDAGReliableNoFaultsMatchesPlain(t *testing.T) {
	d := reliableDAG()
	c1 := miniContinuum()
	plain, err := c1.RunDAG(d, gwSchedule(d), c1.Env(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2 := miniContinuum()
	rel, err := c2.RunDAG(d, gwSchedule(d), c2.Env(), Options{MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Makespan != plain.Makespan || rel.Retries != 0 {
		t.Fatalf("fault-free reliable DAG diverged: %v vs %v (retries %d)",
			rel.Makespan, plain.Makespan, rel.Retries)
	}
}

func TestDAGReliableRetriesAndFinishes(t *testing.T) {
	d := reliableDAG()
	c := miniContinuum()
	gwFault := fault.Attach(c.K, "gw", fault.Spec{MeanUp: 1.0, MeanDown: 0.5}, 1e4, workload.NewRNG(5))
	opts := Options{
		Faults:     map[int]*fault.Target{c.Nodes[0].ID: gwFault},
		MaxRetries: 100,
	}
	st, err := c.RunDAG(d, gwSchedule(d), c.Env(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 6 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.Retries == 0 {
		t.Fatal("no retries despite MTBF ~ task duration")
	}
	// Makespan must exceed the failure-free 3s chain.
	if st.Makespan <= 3.0 {
		t.Fatalf("makespan %v <= failure-free baseline", st.Makespan)
	}
}

func TestDAGReliableAbortsOnExhaustion(t *testing.T) {
	d := reliableDAG()
	c := miniContinuum()
	// Down nearly always: with 0 retries the first loss aborts.
	gwFault := fault.Attach(c.K, "gw", fault.Spec{MeanUp: 0.05, MeanDown: 50}, 1e4, workload.NewRNG(6))
	opts := Options{
		Faults:     map[int]*fault.Target{c.Nodes[0].ID: gwFault},
		MaxRetries: 0,
	}
	_, err := c.RunDAG(d, gwSchedule(d), c.Env(), opts)
	if err == nil {
		t.Fatal("exhausted DAG did not error")
	}
}

func TestDAGReliableRejectsIncompleteSchedule(t *testing.T) {
	d := reliableDAG()
	c := miniContinuum()
	_, err := c.RunDAG(d, placement.Schedule{Assign: map[task.ID]int{}}, c.Env(),
		Options{})
	if err == nil {
		t.Fatal("incomplete schedule accepted")
	}
}

func TestDAGReliableCrossNodeStillWorks(t *testing.T) {
	// Alternate tasks between gateway and cloud with a flaky gateway:
	// transfers + retries must still converge.
	d := reliableDAG()
	c := miniContinuum()
	assign := make(map[task.ID]int, d.N())
	for i := 0; i < d.N(); i++ {
		assign[task.ID(i)] = i % 2
	}
	gwFault := fault.Attach(c.K, "gw", fault.Spec{MeanUp: 2, MeanDown: 0.5}, 1e4, workload.NewRNG(7))
	st, err := c.RunDAG(d, placement.Schedule{Algorithm: "alt", Assign: assign},
		c.Env(), Options{
			Faults:     map[int]*fault.Target{c.Nodes[0].ID: gwFault},
			MaxRetries: 100,
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 6 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.PerNode["cloud"] == 0 || st.PerNode["gw"] == 0 {
		t.Fatalf("placement collapsed: %v", st.PerNode)
	}
}
