// Package node models the compute elements of the continuum: from
// battery-powered sensors through gateways, fog boxes, campus clusters and
// clouds to HPC centers, each optionally carrying specialized accelerator
// "appliances" (the disintegrated machine of Gilder's observation).
//
// A Spec is the static description (catalog entry); a Node is a live
// instance bound to a simulation kernel, with core and accelerator
// occupancy tracked by sim.Resource and energy integrated by an
// energy.Meter.
package node

import (
	"fmt"

	"continuum/internal/energy"
	"continuum/internal/sim"
)

// Class identifies a tier of the continuum.
type Class int

// Continuum tiers, ordered from the extreme edge inward.
const (
	Sensor Class = iota
	Gateway
	Fog
	Campus
	Cloud
	HPC
)

// String returns the tier name.
func (c Class) String() string {
	switch c {
	case Sensor:
		return "sensor"
	case Gateway:
		return "gateway"
	case Fog:
		return "fog"
	case Campus:
		return "campus"
	case Cloud:
		return "cloud"
	case HPC:
		return "hpc"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// AccelKind identifies a specialized appliance type.
type AccelKind int

// Accelerator kinds. Tasks declare which kind their tensor work targets;
// mismatched kinds fall back to cores.
const (
	NoAccel AccelKind = iota
	GPU
	TPU
	FPGA
)

// String returns the accelerator kind name.
func (k AccelKind) String() string {
	switch k {
	case NoAccel:
		return "none"
	case GPU:
		return "gpu"
	case TPU:
		return "tpu"
	case FPGA:
		return "fpga"
	default:
		return fmt.Sprintf("accel(%d)", int(k))
	}
}

// Accelerator describes an attached appliance pool.
type Accelerator struct {
	Kind  AccelKind
	Count int     // number of devices
	Flops float64 // flops/sec per device for matching work
	Watts float64 // active power per device
}

// Spec is a static node description. All rates are per-second SI units.
type Spec struct {
	Name  string
	Class Class

	Cores     int     // schedulable cores
	CoreFlops float64 // flops/sec per core for scalar work
	MemBytes  int64

	Accel Accelerator // zero value = no accelerator

	IdleWatts       float64 // drawn whenever the node is on
	ActiveWattsCore float64 // additional draw per busy core

	DollarPerHour float64 // rental/operation cost while on
	EgressPerByte float64 // $ per byte leaving this node's site
}

// Validate reports the first problem with the spec, or nil.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("node: spec missing name")
	case s.Cores <= 0:
		return fmt.Errorf("node %q: cores %d <= 0", s.Name, s.Cores)
	case s.CoreFlops <= 0:
		return fmt.Errorf("node %q: core flops %v <= 0", s.Name, s.CoreFlops)
	case s.Accel.Count < 0:
		return fmt.Errorf("node %q: negative accel count", s.Name)
	case s.Accel.Count > 0 && s.Accel.Flops <= 0:
		return fmt.Errorf("node %q: accel flops %v <= 0", s.Name, s.Accel.Flops)
	}
	return nil
}

// HasAccel reports whether the spec carries at least one device of kind k.
func (s *Spec) HasAccel(k AccelKind) bool {
	return s.Accel.Count > 0 && s.Accel.Kind == k
}

// ScalarTime returns the time to execute w flops of scalar work on one
// core.
func (s *Spec) ScalarTime(w float64) float64 {
	return w / s.CoreFlops
}

// TensorTime returns the time to execute w flops of tensor work targeting
// kind k: on a matching accelerator if present, otherwise on a core
// (typically orders of magnitude slower — the cost of genericity).
func (s *Spec) TensorTime(w float64, k AccelKind) float64 {
	if w == 0 {
		return 0
	}
	if s.HasAccel(k) {
		return w / s.Accel.Flops
	}
	return w / s.CoreFlops
}

// Node is a live node in a simulation: spec + occupancy + energy.
type Node struct {
	Spec
	ID int // topology vertex id, assigned by the continuum builder

	Cores  *sim.Resource // core occupancy
	Accels *sim.Resource // device occupancy; nil if no accelerator
	Meter  *energy.Meter

	kernel *sim.Kernel

	// TasksStarted / TasksDone count work placed on this node.
	TasksStarted, TasksDone int64
}

// New instantiates spec on kernel k. It panics on an invalid spec
// (programming error: specs are constructed by builders, not user input).
func New(k *sim.Kernel, id int, spec Spec) *Node {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n := &Node{
		Spec:   spec,
		ID:     id,
		Cores:  sim.NewResource(k, spec.Name+"/cores", int64(spec.Cores)),
		Meter:  energy.NewMeter(k, spec.IdleWatts),
		kernel: k,
	}
	if spec.Accel.Count > 0 {
		n.Accels = sim.NewResource(k, spec.Name+"/accel", int64(spec.Accel.Count))
	}
	return n
}

// ExecTime returns the time to run (scalarWork, tensorWork targeting kind)
// on this node with one core (plus one device if matching).
func (n *Node) ExecTime(scalarWork, tensorWork float64, kind AccelKind) float64 {
	return n.ScalarTime(scalarWork) + n.TensorTime(tensorWork, kind)
}

// Execute occupies one core (and one matching accelerator device, if the
// node has one and tensorWork > 0) for the task's execution time, then
// calls done. Queueing for busy cores/devices is FIFO via sim.Resource.
func (n *Node) Execute(scalarWork, tensorWork float64, kind AccelKind, done func()) {
	n.TasksStarted++
	d := n.ExecTime(scalarWork, tensorWork, kind)
	if !(tensorWork > 0 && n.HasAccel(kind) && n.Accels != nil) {
		n.Cores.Acquire(1, func() { n.run(d, false, done) })
		return
	}
	n.Cores.Acquire(1, func() {
		n.Accels.Acquire(1, func() { n.run(d, true, done) })
	})
}

// run draws the granted core's power (and the device's, with accel) for
// d seconds, then frees them and calls done.
func (n *Node) run(d float64, accel bool, done func()) {
	n.Meter.AddLoad(n.ActiveWattsCore)
	var accelW float64
	if accel {
		accelW = n.Accel.Watts
		n.Meter.AddLoad(accelW)
	}
	n.kernel.After(d, func() {
		n.Meter.RemoveLoad(n.ActiveWattsCore)
		if accel {
			n.Meter.RemoveLoad(accelW)
			n.Accels.Release(1)
		}
		n.Cores.Release(1)
		n.TasksDone++
		if done != nil {
			done()
		}
	})
}

// DollarCost returns the cost of occupying this node for d seconds.
func (n *Node) DollarCost(d float64) float64 {
	return n.DollarPerHour * d / 3600
}

// Catalog returns specs for a representative continuum, used by examples
// and experiments. Parameters are order-of-magnitude realistic for 2019
// hardware: sensors ~100 MFLOPS, gateways ~10 GFLOPS/4 cores, fog ~50
// GFLOPS/16 cores, campus ~2 TFLOPS aggregate, cloud VMs with V100-class
// accelerators, HPC nodes with fat accelerators and many cores.
func Catalog() map[string]Spec {
	return map[string]Spec{
		"sensor": {
			Name: "sensor", Class: Sensor,
			Cores: 1, CoreFlops: 1e8, MemBytes: 64 << 20,
			IdleWatts: 0.05, ActiveWattsCore: 0.4,
		},
		"gateway": {
			Name: "gateway", Class: Gateway,
			Cores: 4, CoreFlops: 2.5e9, MemBytes: 4 << 30,
			IdleWatts: 2, ActiveWattsCore: 3,
		},
		"fog": {
			Name: "fog", Class: Fog,
			Cores: 16, CoreFlops: 3e9, MemBytes: 64 << 30,
			Accel:     Accelerator{Kind: GPU, Count: 1, Flops: 5e12, Watts: 70},
			IdleWatts: 40, ActiveWattsCore: 8,
		},
		"campus": {
			Name: "campus", Class: Campus,
			Cores: 64, CoreFlops: 3e9, MemBytes: 256 << 30,
			Accel:     Accelerator{Kind: GPU, Count: 4, Flops: 7e12, Watts: 250},
			IdleWatts: 200, ActiveWattsCore: 10, DollarPerHour: 1.5,
		},
		"cloud": {
			Name: "cloud", Class: Cloud,
			Cores: 96, CoreFlops: 3.2e9, MemBytes: 384 << 30,
			Accel:     Accelerator{Kind: GPU, Count: 8, Flops: 1.4e13, Watts: 300},
			IdleWatts: 300, ActiveWattsCore: 12,
			DollarPerHour: 24, EgressPerByte: 9e-11, // ~$0.09/GB
		},
		"hpc": {
			Name: "hpc", Class: HPC,
			Cores: 256, CoreFlops: 3.5e9, MemBytes: 1 << 40,
			Accel:     Accelerator{Kind: GPU, Count: 16, Flops: 2e13, Watts: 400},
			IdleWatts: 1000, ActiveWattsCore: 15, DollarPerHour: 10,
		},
	}
}
