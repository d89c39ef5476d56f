// Package task models units of work and workflow DAGs for the continuum.
//
// A Task carries scalar work (flops on a core), tensor work (flops that an
// accelerator of the right kind executes far faster), and external data
// references. A DAG adds producer-consumer edges annotated with the bytes
// that must move if the endpoints are placed on different nodes — the
// quantity every placement policy trades against compute speed.
package task

import (
	"fmt"

	"continuum/internal/node"
)

// ID indexes a task within its DAG.
type ID int

// DataRef names an external dataset a task reads, with its size. The data
// fabric resolves where replicas live.
type DataRef struct {
	Name  string
	Bytes float64
}

// Task is one schedulable unit.
type Task struct {
	ID   ID
	Name string

	ScalarWork float64 // flops executed on a core
	TensorWork float64 // flops targeting Accel
	Accel      node.AccelKind

	// Inputs are external datasets (not produced by DAG predecessors).
	Inputs []DataRef
	// OutputBytes is the size of the result this task materializes; it is
	// what flows along outgoing edges unless the edge overrides it.
	OutputBytes float64
}

// TotalWork returns scalar + tensor flops, a device-independent size proxy.
func (t *Task) TotalWork() float64 { return t.ScalarWork + t.TensorWork }

// Edge is a producer→consumer dependency carrying Bytes of intermediate
// data.
type Edge struct {
	From, To ID
	Bytes    float64
}

// DAG is a directed acyclic graph of tasks.
type DAG struct {
	Name  string
	Tasks []*Task
	Edges []Edge

	// succ and pred hold copies of Edges grouped by source and by target
	// (each group in Edges order), and roots the tasks with no incoming
	// edge; all are built lazily, once per change.
	succ, pred [][]Edge
	roots      []ID
	built      bool
}

// NewDAG returns an empty DAG with the given name.
func NewDAG(name string) *DAG {
	return &DAG{Name: name}
}

// Add appends a task, assigns its ID, and returns it.
func (d *DAG) Add(t *Task) *Task {
	t.ID = ID(len(d.Tasks))
	d.Tasks = append(d.Tasks, t)
	d.built = false
	return t
}

// AddTask is a convenience constructor: scalar-only work with output size.
func (d *DAG) AddTask(name string, scalarWork, outputBytes float64) *Task {
	return d.Add(&Task{Name: name, ScalarWork: scalarWork, OutputBytes: outputBytes})
}

// Connect adds an edge moving bytes from producer to consumer. A negative
// bytes value means "use the producer's OutputBytes".
func (d *DAG) Connect(from, to ID, bytes float64) {
	if bytes < 0 {
		bytes = d.Tasks[from].OutputBytes
	}
	d.Edges = append(d.Edges, Edge{From: from, To: to, Bytes: bytes})
	d.built = false
}

// N returns the number of tasks.
func (d *DAG) N() int { return len(d.Tasks) }

func (d *DAG) build() {
	if d.built {
		return
	}
	n := len(d.Tasks)
	d.succ = make([][]Edge, n)
	d.pred = make([][]Edge, n)
	for _, e := range d.Edges {
		d.succ[e.From] = append(d.succ[e.From], e)
		d.pred[e.To] = append(d.pred[e.To], e)
	}
	d.roots = nil
	for i := range d.Tasks {
		if len(d.pred[i]) == 0 {
			d.roots = append(d.roots, ID(i))
		}
	}
	d.built = true
}

// Successors returns the edges leaving t, in the order they were
// connected. The slice is the DAG's own, shared by every caller and
// rebuilt after a change: read it, do not modify or keep it.
func (d *DAG) Successors(t ID) []Edge {
	d.build()
	return d.succ[t]
}

// Predecessors returns the edges entering t, in the order they were
// connected, as a shared slice like Successors.
func (d *DAG) Predecessors(t ID) []Edge {
	d.build()
	return d.pred[t]
}

// InDegree returns the number of incoming edges of t.
func (d *DAG) InDegree(t ID) int {
	d.build()
	return len(d.pred[t])
}

// Roots returns the tasks with no predecessors, in ID order, as a shared
// slice like Successors.
func (d *DAG) Roots() []ID {
	d.build()
	return d.roots
}

// Validate checks edge endpoints and acyclicity.
func (d *DAG) Validate() error {
	n := len(d.Tasks)
	for _, e := range d.Edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return fmt.Errorf("task: edge %v out of range [0,%d)", e, n)
		}
		if e.From == e.To {
			return fmt.Errorf("task: self-edge on %d", e.From)
		}
		if e.Bytes < 0 {
			return fmt.Errorf("task: negative edge bytes %v", e.Bytes)
		}
	}
	if _, err := d.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological order (Kahn), or an error if the graph
// has a cycle. Ties are broken by task ID for determinism.
func (d *DAG) TopoOrder() ([]ID, error) {
	d.build()
	n := len(d.Tasks)
	indeg := make([]int, n)
	for i := range d.Tasks {
		indeg[i] = len(d.pred[i])
	}
	// Deterministic Kahn: repeatedly take the smallest ready ID. A simple
	// sorted frontier is fine at workflow scales.
	var order []ID
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		// Pop the minimum.
		mi := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[mi] {
				mi = i
			}
		}
		u := ready[mi]
		ready = append(ready[:mi], ready[mi+1:]...)
		order = append(order, ID(u))
		for _, e := range d.succ[u] {
			v := int(e.To)
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("task: DAG %q has a cycle (%d of %d ordered)", d.Name, len(order), n)
	}
	return order, nil
}

// TotalWork sums flops over all tasks.
func (d *DAG) TotalWork() float64 {
	sum := 0.0
	for _, t := range d.Tasks {
		sum += t.TotalWork()
	}
	return sum
}

// TotalEdgeBytes sums intermediate data over all edges.
func (d *DAG) TotalEdgeBytes() float64 {
	sum := 0.0
	for _, e := range d.Edges {
		sum += e.Bytes
	}
	return sum
}
