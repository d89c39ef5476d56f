package task

import (
	"math"
	"testing"
	"testing/quick"

	"continuum/internal/workload"
)

func diamond() *DAG {
	// 0 -> {1,2} -> 3
	d := NewDAG("diamond")
	d.AddTask("a", 1e9, 100)
	d.AddTask("b", 2e9, 200)
	d.AddTask("c", 3e9, 300)
	d.AddTask("d", 1e9, 0)
	d.Connect(0, 1, -1)
	d.Connect(0, 2, -1)
	d.Connect(1, 3, -1)
	d.Connect(2, 3, -1)
	return d
}

func TestAddAssignsIDs(t *testing.T) {
	d := NewDAG("x")
	a := d.AddTask("a", 1, 1)
	b := d.AddTask("b", 1, 1)
	if a.ID != 0 || b.ID != 1 || d.N() != 2 {
		t.Fatalf("ids %d,%d n=%d", a.ID, b.ID, d.N())
	}
}

func TestConnectDefaultBytes(t *testing.T) {
	d := diamond()
	// Edge 0->1 inherits task 0's OutputBytes = 100.
	if d.Edges[0].Bytes != 100 {
		t.Fatalf("edge bytes = %v, want 100", d.Edges[0].Bytes)
	}
	d.Connect(1, 3, 42)
	if d.Edges[len(d.Edges)-1].Bytes != 42 {
		t.Fatal("explicit bytes not honored")
	}
}

func TestPredSucc(t *testing.T) {
	d := diamond()
	succ := d.Successors(0)
	if len(succ) != 2 {
		t.Fatalf("Successors(0) = %d, want 2", len(succ))
	}
	pred := d.Predecessors(3)
	if len(pred) != 2 {
		t.Fatalf("Predecessors(3) = %d, want 2", len(pred))
	}
	if d.InDegree(0) != 0 || d.InDegree(3) != 2 {
		t.Fatal("InDegree wrong")
	}
}

func TestRootsAndSinks(t *testing.T) {
	d := diamond()
	roots, sinks := d.Roots(), sinks(d)
	if len(roots) != 1 || roots[0] != 0 {
		t.Fatalf("Roots = %v", roots)
	}
	if len(sinks) != 1 || sinks[0] != 3 {
		t.Fatalf("Sinks = %v", sinks)
	}
}

func TestTopoOrderValid(t *testing.T) {
	d := diamond()
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[ID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range d.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topo violated for edge %v in %v", e, order)
		}
	}
}

func TestCycleDetected(t *testing.T) {
	d := NewDAG("cyclic")
	d.AddTask("a", 1, 1)
	d.AddTask("b", 1, 1)
	d.Connect(0, 1, 0)
	d.Connect(1, 0, 0)
	if err := d.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateRejectsBadEdges(t *testing.T) {
	d := NewDAG("bad")
	d.AddTask("a", 1, 1)
	d.Edges = append(d.Edges, Edge{From: 0, To: 9, Bytes: 1})
	if d.Validate() == nil {
		t.Fatal("out-of-range edge accepted")
	}
	d2 := NewDAG("self")
	d2.AddTask("a", 1, 1)
	d2.Edges = append(d2.Edges, Edge{From: 0, To: 0})
	if d2.Validate() == nil {
		t.Fatal("self-edge accepted")
	}
	d3 := NewDAG("neg")
	d3.AddTask("a", 1, 1)
	d3.AddTask("b", 1, 1)
	d3.Edges = append(d3.Edges, Edge{From: 0, To: 1, Bytes: -4})
	if d3.Validate() == nil {
		t.Fatal("negative bytes accepted")
	}
}

func TestTotals(t *testing.T) {
	d := diamond()
	if w := d.TotalWork(); math.Abs(w-7e9) > 1 {
		t.Fatalf("TotalWork = %v", w)
	}
	if b := d.TotalEdgeBytes(); math.Abs(b-(100+100+200+300)) > 1e-9 {
		t.Fatalf("TotalEdgeBytes = %v", b)
	}
}

func genSpec() GenSpec {
	return GenSpec{MeanWork: 1e9, WorkSigma: 0.5, MeanBytes: 1e6, BytesSigma: 0.5}
}

func TestChainShape(t *testing.T) {
	d := Chain(workload.NewRNG(1), 5, genSpec())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != 5 || len(d.Edges) != 4 {
		t.Fatalf("chain shape %d/%d", d.N(), len(d.Edges))
	}
	if len(d.Roots()) != 1 || len(sinks(d)) != 1 {
		t.Fatal("chain should have one root and one sink")
	}
}

func TestFanOutInShape(t *testing.T) {
	d := FanOutIn(workload.NewRNG(2), 8, genSpec())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != 10 {
		t.Fatalf("N = %d, want 10", d.N())
	}
	if len(d.Roots()) != 1 || len(sinks(d)) != 1 {
		t.Fatal("fan-out-in should have one root and one sink")
	}
	// Source fans to 8, sink gathers 8.
	if len(d.Successors(d.Roots()[0])) != 8 {
		t.Fatal("source fanout wrong")
	}
	if d.InDegree(sinks(d)[0]) != 8 {
		t.Fatal("sink indegree wrong")
	}
}

func TestRandomLayeredConnected(t *testing.T) {
	d := RandomLayered(workload.NewRNG(3), 6, 10, 3, genSpec())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every non-first-layer task must have a predecessor (generator
	// guarantees layer connectivity).
	order, _ := d.TopoOrder()
	if len(order) != d.N() {
		t.Fatal("topo order incomplete")
	}
}

func TestMontageShape(t *testing.T) {
	const images = 10
	d := MontageLike(workload.NewRNG(4), images, genSpec())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// images projects + (images-1) diffs + model + images backgrounds + add
	want := images + (images - 1) + 1 + images + 1
	if d.N() != want {
		t.Fatalf("N = %d, want %d", d.N(), want)
	}
	if len(sinks(d)) != 1 {
		t.Fatalf("Montage sinks = %v, want 1 (mAdd)", sinks(d))
	}
	if len(d.Roots()) != images {
		t.Fatalf("Montage roots = %d, want %d projections", len(d.Roots()), images)
	}
}

func TestEpigenomicsShape(t *testing.T) {
	d := EpigenomicsLike(workload.NewRNG(5), 4, 5, genSpec())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// split + 4*5 lanes + merge + index
	if d.N() != 1+20+2 {
		t.Fatalf("N = %d", d.N())
	}
	if len(d.Roots()) != 1 || len(sinks(d)) != 1 {
		t.Fatal("epigenomics should be single-root single-sink")
	}
}

func TestCyberShakeShape(t *testing.T) {
	const sites = 12
	d := CyberShakeLike(workload.NewRNG(6), sites, genSpec())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 SGT roots + 2 per site + 1 aggregator.
	if d.N() != 2+2*sites+1 {
		t.Fatalf("N = %d", d.N())
	}
	if len(d.Roots()) != 2 {
		t.Fatalf("roots = %v", d.Roots())
	}
	if len(sinks(d)) != 1 {
		t.Fatalf("sinks = %v", sinks(d))
	}
	// The aggregator gathers all sites.
	if d.InDegree(sinks(d)[0]) != sites {
		t.Fatalf("aggregator indegree = %d", d.InDegree(sinks(d)[0]))
	}
	// SGT outputs dominate: root out-edges should be far heavier than
	// the non-root edges.
	isRoot := map[ID]bool{}
	for _, r := range d.Roots() {
		isRoot[r] = true
	}
	rootBytes, rootEdges := 0.0, 0
	otherBytes, otherEdges := 0.0, 0
	for _, e := range d.Edges {
		if isRoot[e.From] {
			rootBytes += e.Bytes
			rootEdges++
		} else {
			otherBytes += e.Bytes
			otherEdges++
		}
	}
	avgRoot := rootBytes / float64(rootEdges)
	avgOther := otherBytes / float64(otherEdges)
	if avgRoot < 10*avgOther {
		t.Fatalf("SGT edges not dominant: root avg %v vs other %v", avgRoot, avgOther)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := MontageLike(workload.NewRNG(7), 8, genSpec())
	b := MontageLike(workload.NewRNG(7), 8, genSpec())
	if a.N() != b.N() || len(a.Edges) != len(b.Edges) {
		t.Fatal("same-seed DAGs differ in shape")
	}
	for i := range a.Tasks {
		if a.Tasks[i].ScalarWork != b.Tasks[i].ScalarWork {
			t.Fatalf("same-seed DAGs differ in work at task %d", i)
		}
	}
}

// Property: all generators produce valid DAGs with positive work.
func TestPropertyGeneratorsValid(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		rng := workload.NewRNG(seed)
		n := int(size%20) + 2
		spec := genSpec()
		dags := []*DAG{
			Chain(rng.Split(), n, spec),
			FanOutIn(rng.Split(), n, spec),
			RandomLayered(rng.Split(), n/4+2, n/2+1, 3, spec),
			MontageLike(rng.Split(), n, spec),
			EpigenomicsLike(rng.Split(), n/4+1, n/4+1, spec),
		}
		for _, d := range dags {
			if d.Validate() != nil {
				return false
			}
			for _, tk := range d.Tasks {
				if tk.TotalWork() <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// sinks returns the tasks of d with no successors.
func sinks(d *DAG) []ID {
	var out []ID
	for i := range d.Tasks {
		if len(d.Successors(ID(i))) == 0 {
			out = append(out, ID(i))
		}
	}
	return out
}
