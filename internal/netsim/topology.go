package netsim

import "continuum/internal/sim"

// Topology builders for common experiment shapes. Each returns the network
// plus the ids of the vertices it created, so callers can attach node
// models to them.

// StarSpec parameterizes a star (hub-and-spoke) topology.
type StarSpec struct {
	Leaves       int
	LeafLatency  float64 // hub<->leaf one-way latency
	LeafCapacity float64 // per-direction capacity
}

// Star builds a hub with n leaves. It returns the hub id and leaf ids.
func Star(k *sim.Kernel, spec StarSpec) (*Network, int, []int) {
	n := New(k, spec.Leaves+1)
	hub := 0
	leaves := make([]int, spec.Leaves)
	for i := 0; i < spec.Leaves; i++ {
		leaves[i] = i + 1
		n.AddDuplexLink(hub, leaves[i], spec.LeafLatency, spec.LeafCapacity)
	}
	return n, hub, leaves
}
