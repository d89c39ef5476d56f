package placement

import (
	"math"
	"testing"
	"testing/quick"

	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/sim"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// schedEnv builds a heterogeneous 3-node cluster for scheduling tests:
// two slow edge boxes and one fast cloud, all pairwise connected.
func schedEnv(t testing.TB) *Env {
	k := sim.NewKernel()
	net := netsim.New(k, 3)
	net.AddDuplexLink(0, 1, 0.001, 1e9)
	net.AddDuplexLink(0, 2, 0.030, 1e8)
	net.AddDuplexLink(1, 2, 0.030, 1e8)
	mk := func(id int, name string, cores int, flops float64) *node.Node {
		return node.New(k, id, node.Spec{
			Name: name, Class: node.Fog, Cores: cores, CoreFlops: flops,
			MemBytes: 1 << 30, IdleWatts: 1, ActiveWattsCore: 1,
		})
	}
	return &Env{Net: net, Nodes: []*node.Node{
		mk(0, "slow-a", 2, 1e9),
		mk(1, "slow-b", 2, 1e9),
		mk(2, "fast", 8, 8e9),
	}}
}

func genDAG(seed uint64, n int) *task.DAG {
	rng := workload.NewRNG(seed)
	return task.RandomLayered(rng, 5, n/4+1, 3, task.GenSpec{
		MeanWork: 5e9, WorkSigma: 1.0, MeanBytes: 1e6, BytesSigma: 0.8,
	})
}

// validSchedule checks structural soundness: every task assigned, finish
// times respect precedence + movement, makespan is the max finish.
func validSchedule(t *testing.T, env *Env, d *task.DAG, s Schedule) {
	t.Helper()
	if len(s.Assign) != d.N() {
		t.Fatalf("%s: %d of %d tasks assigned", s.Algorithm, len(s.Assign), d.N())
	}
	maxFinish := 0.0
	for id, ni := range s.Assign {
		if ni < 0 || ni >= len(env.Nodes) {
			t.Fatalf("%s: task %d on node %d out of range", s.Algorithm, id, ni)
		}
		if s.EstFinish[id] > maxFinish {
			maxFinish = s.EstFinish[id]
		}
	}
	if s.EstMakespan < maxFinish-1e-9 {
		t.Fatalf("%s: makespan %v < max finish %v", s.Algorithm, s.EstMakespan, maxFinish)
	}
	for _, e := range d.Edges {
		pf := s.EstFinish[e.From]
		cf := s.EstFinish[e.To]
		exec := execCost(d.Tasks[e.To], env.Nodes[s.Assign[e.To]])
		comm := commCost(env, e, env.Nodes[s.Assign[e.From]], env.Nodes[s.Assign[e.To]])
		if cf+1e-9 < pf+comm+exec {
			t.Fatalf("%s: edge %v violated: child finish %v < parent %v + comm %v + exec %v",
				s.Algorithm, e, cf, pf, comm, exec)
		}
	}
}

func TestHEFTStructure(t *testing.T) {
	env := schedEnv(t)
	d := genDAG(1, 40)
	validSchedule(t, env, d, HEFT(env, d))
}

func TestCPOPStructure(t *testing.T) {
	env := schedEnv(t)
	d := genDAG(2, 40)
	validSchedule(t, env, d, CPOP(env, d))
}

func TestBaselineStructures(t *testing.T) {
	env := schedEnv(t)
	d := genDAG(3, 40)
	validSchedule(t, env, d, ListRoundRobin(env, d))
	validSchedule(t, env, d, ListRandom(env, d, workload.NewRNG(4)))
	validSchedule(t, env, d, ListGreedy(env, d))
}

func TestHEFTBeatsRandomOnAverage(t *testing.T) {
	env := schedEnv(t)
	var heftTotal, randTotal float64
	const trials = 10
	for i := uint64(0); i < trials; i++ {
		d := genDAG(100+i, 40)
		heftTotal += HEFT(env, d).EstMakespan
		randTotal += ListRandom(env, d, workload.NewRNG(i)).EstMakespan
	}
	if heftTotal >= randTotal {
		t.Fatalf("HEFT mean makespan %v not better than random %v", heftTotal/trials, randTotal/trials)
	}
}

func TestHEFTBeatsRoundRobinOnHeterogeneous(t *testing.T) {
	env := schedEnv(t)
	var h, rr float64
	for i := uint64(0); i < 10; i++ {
		d := genDAG(200+i, 40)
		h += HEFT(env, d).EstMakespan
		rr += ListRoundRobin(env, d).EstMakespan
	}
	if h >= rr {
		t.Fatalf("HEFT %v not better than round-robin %v", h, rr)
	}
}

func TestHEFTChainUsesFastNode(t *testing.T) {
	env := schedEnv(t)
	// A pure chain has no parallelism: everything belongs on the fast
	// node (comm between stages is tiny).
	d := task.Chain(workload.NewRNG(5), 6, task.GenSpec{
		MeanWork: 1e10, WorkSigma: 0, MeanBytes: 1e3, BytesSigma: 0,
	})
	s := HEFT(env, d)
	for id, ni := range s.Assign {
		if env.Nodes[ni].Name != "fast" {
			t.Fatalf("chain task %d on %s, want fast", id, env.Nodes[ni].Name)
		}
	}
}

func TestHEFTDeterministic(t *testing.T) {
	env := schedEnv(t)
	d := genDAG(7, 30)
	a, b := HEFT(env, d), HEFT(env, d)
	if a.EstMakespan != b.EstMakespan {
		t.Fatal("HEFT not deterministic")
	}
	for id := range a.Assign {
		if a.Assign[id] != b.Assign[id] {
			t.Fatal("HEFT assignment not deterministic")
		}
	}
}

func TestScheduleMakespanLowerBound(t *testing.T) {
	// Makespan can't beat total-work / total-capacity or the critical path
	// on the fastest node.
	env := schedEnv(t)
	d := genDAG(8, 40)
	s := HEFT(env, d)
	totalFlops := d.TotalWork()
	capacity := 0.0
	fastest := 0.0
	for _, n := range env.Nodes {
		capacity += float64(n.Spec.Cores) * n.CoreFlops
		if n.CoreFlops > fastest {
			fastest = n.CoreFlops
		}
	}
	if s.EstMakespan < totalFlops/capacity-1e-9 {
		t.Fatalf("makespan %v beats work/capacity bound %v", s.EstMakespan, totalFlops/capacity)
	}
	cp := criticalPath(t, d, func(tk *task.Task) float64 { return tk.ScalarWork / fastest })
	if s.EstMakespan < cp-1e-9 {
		t.Fatalf("makespan %v beats critical-path bound %v", s.EstMakespan, cp)
	}
}

// Property: all schedulers produce structurally valid schedules on random
// DAGs (precedence + movement respected).
func TestPropertySchedulersValid(t *testing.T) {
	env := schedEnv(t)
	f := func(seed uint64) bool {
		d := genDAG(seed, 24)
		for _, s := range []Schedule{
			HEFT(env, d), CPOP(env, d),
			ListRoundRobin(env, d), ListGreedy(env, d),
			ListRandom(env, d, workload.NewRNG(seed)),
		} {
			if len(s.Assign) != d.N() {
				return false
			}
			for _, e := range d.Edges {
				exec := execCost(d.Tasks[e.To], env.Nodes[s.Assign[e.To]])
				comm := commCost(env, e, env.Nodes[s.Assign[e.From]], env.Nodes[s.Assign[e.To]])
				if s.EstFinish[e.To]+1e-9 < s.EstFinish[e.From]+comm+exec {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// criticalPath returns the longest path through d where each task costs
// compute(t) and edges are free: the classic makespan lower bound.
func criticalPath(t *testing.T, d *task.DAG, compute func(*task.Task) float64) float64 {
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]float64, d.N())
	best := 0.0
	for _, u := range order {
		dist[u] += compute(d.Tasks[u])
		best = math.Max(best, dist[u])
		for _, e := range d.Successors(u) {
			dist[e.To] = math.Max(dist[e.To], dist[u])
		}
	}
	return best
}
