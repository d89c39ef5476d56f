package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/workload"
)

func gatewayNodes(c *Continuum, names ...string) []*node.Node {
	var out []*node.Node
	for _, name := range names {
		spec := node.Catalog()["gateway"]
		spec.Name = name
		out = append(out, c.AddNode(spec))
	}
	return out
}

// allPairsConnected is the definition Validate implements: every node
// has a path to every other node.
func allPairsConnected(c *Continuum) bool {
	for _, a := range c.Nodes {
		for _, b := range c.Nodes {
			if _, err := c.Net.Path(a.ID, b.ID); err != nil {
				return false
			}
		}
	}
	return true
}

// checkNamedPair requires err to be Validate's error form and to name a
// pair that Path confirms unreachable.
func checkNamedPair(t *testing.T, c *Continuum, err error) {
	t.Helper()
	var ue *netsim.UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("error %q does not wrap *netsim.UnreachableError", err)
	}
	if _, perr := c.Net.Path(ue.From, ue.To); perr == nil {
		t.Fatalf("Validate named %d→%d, but Path finds a route", ue.From, ue.To)
	}
	want := fmt.Sprintf("core: %s cannot reach %s: ", c.Nodes[ue.From].Name, c.Nodes[ue.To].Name)
	if !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q, want prefix %q", err, want)
	}
}

// TestValidateOneWayPartition: a single directed link leaves one node
// unable to reach the other; Validate must catch it in each direction.
func TestValidateOneWayPartition(t *testing.T) {
	for _, dir := range []string{"a→b only", "b→a only"} {
		c := New()
		ns := gatewayNodes(c, "a", "b", "c")
		c.Connect(ns[0].ID, ns[2].ID, 0.001, 1e9) // a and c fully connected
		from, to := ns[0], ns[1]
		if dir == "b→a only" {
			from, to = to, from
		}
		c.Net.AddLink(from.ID, to.ID, 0.001, 1e9)
		err := c.Validate()
		if err == nil {
			t.Fatalf("%s: one-way partition not detected", dir)
		}
		checkNamedPair(t, c, err)
	}
}

// TestValidateThroughPureVertex: nodes whose only connection is a router
// vertex with no compute are connected.
func TestValidateThroughPureVertex(t *testing.T) {
	c := New()
	ns := gatewayNodes(c, "a", "b", "c")
	hub := c.AddVertex()
	for _, n := range ns {
		c.Connect(n.ID, hub, 0.001, 1e9)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyValidateMatchesAllPairs: on random sparse directed
// topologies with pure vertices, Validate agrees with the all-pairs
// definition, and every error names a truly unreachable pair.
func TestPropertyValidateMatchesAllPairs(t *testing.T) {
	rejected := 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := workload.NewRNG(seed)
		c := New()
		nodes := 2 + rng.Intn(6)
		for i := 0; i < nodes; i++ {
			gatewayNodes(c, fmt.Sprintf("n%d", i))
		}
		for i := rng.Intn(3); i > 0; i-- {
			c.AddVertex()
		}
		v := c.Net.NumNodes()
		for i := v + rng.Intn(2*v); i > 0; i-- {
			c.Net.AddLink(rng.Intn(v), rng.Intn(v), 0.001, 1e9)
		}
		err := c.Validate()
		if want := allPairsConnected(c); (err == nil) != want {
			t.Fatalf("seed %d: Validate = %v, all-pairs connected = %v", seed, err, want)
		}
		if err != nil {
			rejected++
			checkNamedPair(t, c, err)
		}
	}
	if rejected == 0 || rejected == 200 {
		t.Fatalf("%d of 200 topologies rejected; generator does not cover both outcomes", rejected)
	}
}

// BenchmarkContinuumValidate checks a stress-shaped fleet (cloud, n/64
// fogs, gateways spread over them) for connectivity.
func BenchmarkContinuumValidate(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		c := New()
		cloud := gatewayNodes(c, "cloud")[0]
		fogs := max(n/64, 2)
		for f := 0; f < fogs; f++ {
			c.Connect(gatewayNodes(c, fmt.Sprintf("fog%d", f))[0].ID, cloud.ID, 0.020, 1.25e9)
		}
		for g := 0; g < n-1-fogs; g++ {
			c.Connect(gatewayNodes(c, fmt.Sprintf("gw%04d", g))[0].ID, c.Nodes[1+g%fogs].ID, 0.002, 1.25e8)
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
