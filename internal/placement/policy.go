// Package placement answers the keynote's first question — "where should I
// compute?" — over a modeled continuum.
//
// Two families live here:
//
//   - Online policies (Policy): pick a node for each arriving task, given
//     the network, current node occupancy, and (optionally) data replica
//     locations. These drive the streaming/IoT experiments.
//   - Static DAG schedulers (HEFT, CPOP, and list baselines in heft.go):
//     map a whole workflow to nodes before execution. These drive the
//     science-workflow experiments.
//
// All estimators share one cost model: completion = input movement +
// queueing + execution; energy = active watts × execution time; dollars =
// node $/hour × execution time + egress.
package placement

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"continuum/internal/data"
	"continuum/internal/netsim"
	"continuum/internal/node"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// Env is the continuum view a policy sees when deciding.
type Env struct {
	Net *netsim.Network
	// Nodes is the fixed candidate set. Policies keep state derived from
	// it between decisions (GreedyLatency's index), so give an Env a new
	// slice rather than editing this one in place.
	Nodes []*node.Node
	// Fabric is optional; when present, data-aware policies use replica
	// locations for staging estimates.
	Fabric *data.Fabric
	// Eligible, when set, reports whether a candidate may take new work
	// right now (up, not cordoned). Policies choose among eligible
	// candidates only, and Select returns nil when none is. Nil means
	// every candidate is eligible. It must be pure: a policy may ask it
	// of some candidates only, in any order (GreedyLatency asks it only
	// of a candidate that would beat its best so far).
	Eligible func(*node.Node) bool

	// state is what policies derive from the candidates, allocated on
	// first use and shared with the views Restrict makes.
	state *envState
}

// envState is the per-Env memory policies keep between decisions.
type envState struct {
	cands         []*node.Node // Candidates scratch
	lat, eng, dol []float64    // MultiObjective scratch
	near          nearIndex    // GreedyLatency's candidates, nearest first
}

func (e *Env) shared() *envState {
	if e.state == nil {
		e.state = &envState{}
	}
	return e.state
}

// Restrict returns a view of env whose eligible candidates are further
// limited to those keep accepts. The view shares env's derived state, so
// a second view over the same candidates (a speculative backup that must
// avoid the primary) builds no index of its own.
func (e *Env) Restrict(keep func(*node.Node) bool) *Env {
	r := *e
	r.state = e.shared()
	r.Eligible = keep
	if base := e.Eligible; base != nil {
		r.Eligible = func(n *node.Node) bool { return base(n) && keep(n) }
	}
	return &r
}

// Candidates returns the eligible candidates in Nodes order: every policy
// that considers the whole set reads it here, so RNG draws and
// tie-breaks see the same list whether ineligible nodes are filtered by
// the caller or by Eligible. With Eligible set the result is scratch,
// valid until the next call on env or a view of it.
func (e *Env) Candidates() []*node.Node {
	if e.Eligible == nil {
		return e.Nodes
	}
	st := e.shared()
	st.cands = st.cands[:0]
	for _, n := range e.Nodes {
		if e.Eligible(n) {
			st.cands = append(st.cands, n)
		}
	}
	return st.cands
}

// Request is one task to place, originating (its input data, its caller)
// at a topology vertex.
type Request struct {
	Task   *task.Task
	Origin int
}

// Policy selects a node for each request, or nil when env has no eligible
// candidate. Implementations must be deterministic given their
// construction parameters (randomized policies take an explicit RNG) and
// must draw nothing when they return nil.
type Policy interface {
	Name() string
	Select(env *Env, req Request) *node.Node
}

// inputBytes sums the external input data the request must see.
func inputBytes(t *task.Task) float64 {
	sum := 0.0
	for _, in := range t.Inputs {
		sum += in.Bytes
	}
	return sum
}

// EstimateLatency returns the estimated completion time for req on n:
// input movement (from the fabric's nearest replicas when available,
// otherwise from the request origin) + queue wait + execution.
func EstimateLatency(env *Env, req Request, n *node.Node) float64 {
	move := 0.0
	if env.Fabric != nil && len(req.Task.Inputs) > 0 {
		for _, in := range req.Task.Inputs {
			st := env.Fabric.StageTime(data.Dataset{Name: in.Name, Bytes: in.Bytes}, n.ID)
			if math.IsInf(st, 1) {
				// Replica unknown to the fabric: fall back to shipping
				// from the origin.
				st = env.Net.MessageTime(req.Origin, n.ID, in.Bytes)
			}
			move += st
		}
	} else if ib := inputBytes(req.Task); ib > 0 {
		move = env.Net.MessageTime(req.Origin, n.ID, ib)
	} else {
		// Even an empty invocation pays one-way control latency.
		move = env.Net.Latency(req.Origin, n.ID)
	}
	exec := n.ExecTime(req.Task.ScalarWork, req.Task.TensorWork, req.Task.Accel)
	// Queue estimate: outstanding work ahead of us, spread over cores,
	// approximated with this task's own execution time as the mean.
	backlog := float64(n.Cores.InUse()) + float64(n.Cores.QueueLen())
	wait := backlog * exec / float64(n.Spec.Cores)
	return move + wait + exec
}

// EstimateEnergy returns the marginal joules req would consume on n:
// active-core draw (plus accelerator draw when used) over the execution.
func EstimateEnergy(env *Env, req Request, n *node.Node) float64 {
	exec := n.ExecTime(req.Task.ScalarWork, req.Task.TensorWork, req.Task.Accel)
	w := n.ActiveWattsCore
	if req.Task.TensorWork > 0 && n.HasAccel(req.Task.Accel) {
		w += n.Accel.Watts
	}
	return w * exec
}

// EstimateDollars returns the marginal dollar cost of req on n, including
// egress for shipping the result back to the origin.
func EstimateDollars(env *Env, req Request, n *node.Node) float64 {
	exec := n.ExecTime(req.Task.ScalarWork, req.Task.TensorWork, req.Task.Accel)
	c := n.DollarCost(exec)
	c += n.EgressPerByte * req.Task.OutputBytes
	return c
}

// argmin returns the node minimizing score, breaking ties on lower node ID
// for determinism, or nil if nodes is empty.
func argmin(nodes []*node.Node, score func(*node.Node) float64) *node.Node {
	if len(nodes) == 0 {
		return nil
	}
	best := nodes[0]
	bestScore := score(best)
	for _, n := range nodes[1:] {
		s := score(n)
		if s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}

// filterClass returns nodes with Class in [lo, hi]; if none match it
// returns the input unchanged (graceful degradation beats a panic when an
// experiment configures a tier-free continuum).
func filterClass(nodes []*node.Node, lo, hi node.Class) []*node.Node {
	var out []*node.Node
	for _, n := range nodes {
		if n.Class >= lo && n.Class <= hi {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nodes
	}
	return out
}

// EdgeOnly places every task on edge-tier nodes (Sensor..Fog), choosing
// the least-loaded nearest one. The "never leave the edge" baseline. Like
// CloudOnly it scores with the fabric, so it scans every candidate (see
// DataAware).
type EdgeOnly struct{}

// Name implements Policy.
func (EdgeOnly) Name() string { return "edge-only" }

// Select implements Policy.
func (EdgeOnly) Select(env *Env, req Request) *node.Node {
	cands := filterClass(env.Candidates(), node.Sensor, node.Fog)
	return argmin(cands, func(n *node.Node) float64 {
		return EstimateLatency(env, req, n)
	})
}

// CloudOnly places every task on Cloud/HPC nodes: the "ship everything to
// the data center" baseline that pays WAN latency and egress.
type CloudOnly struct{}

// Name implements Policy.
func (CloudOnly) Name() string { return "cloud-only" }

// Select implements Policy.
func (CloudOnly) Select(env *Env, req Request) *node.Node {
	cands := filterClass(env.Candidates(), node.Cloud, node.HPC)
	return argmin(cands, func(n *node.Node) float64 {
		return EstimateLatency(env, req, n)
	})
}

// Random places uniformly at random — the floor any useful policy must
// beat.
type Random struct{ RNG *workload.RNG }

// Name implements Policy.
func (Random) Name() string { return "random" }

// Select implements Policy.
func (r Random) Select(env *Env, req Request) *node.Node {
	cands := env.Candidates()
	if len(cands) == 0 {
		return nil
	}
	return cands[r.RNG.Intn(len(cands))]
}

// RoundRobin cycles through nodes: oblivious load spreading.
type RoundRobin struct{ next int }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements Policy.
func (r *RoundRobin) Select(env *Env, req Request) *node.Node {
	cands := env.Candidates()
	if len(cands) == 0 {
		return nil
	}
	n := cands[r.next%len(cands)]
	r.next++
	return n
}

// GreedyLatency picks the node with the lowest estimated completion time,
// ignoring data replicas (it ships inputs from the origin).
//
// It scores from its own index rather than through EstimateLatency: a
// candidate's list entry holds its vertex ID and the latency and
// bottleneck capacity of its path from the origin, and its part holds its
// exec time, so a score is move + wait + exec from those and the node's
// occupancy. It must equal EstimateLatency's value (with no fabric) bit
// for bit: it makes the same float operations in the same order.
//
// It scores only the candidates that can win. With inputs shipped from
// the origin, wait ≥ 0 and rounding is monotone, so fl(move + exec) is a
// lower bound on n's score, and so is fl(Latency(origin, n) + exec).
// Candidates whose specs give the same exec are scanned nearest first,
// and a part's scan stops once the latency bound is strictly greater than
// the best score so far, or once it has passed every member of the part.
// A candidate whose move bound is above the best score, or equal to it
// with an ID no lower than the best's, is skipped from its entry alone,
// without reading the node: it cannot beat the best on (score, ID). So
// that a run of equally near candidates (a gateway's siblings behind one
// fog) settles at its lowest idle ID and skips the rest, each part's list
// keeps such a run in ID order. The search settles a run in heap order,
// so the run is sorted once no scan is inside it: when the origin's
// search lists a farther member of the part, or when a scan has passed
// every member. Of a candidate that would beat the best, Eligible is
// asked last. The choice is the same (score, ID) minimum a full scan
// returns.
type GreedyLatency struct{}

// Name implements Policy.
func (GreedyLatency) Name() string { return "greedy-latency" }

// Select implements Policy.
func (GreedyLatency) Select(env *Env, req Request) *node.Node {
	ix := &env.shared().near
	o := ix.origin(env, req.Origin)
	tk := req.Task
	ib := inputBytes(tk)
	var best *node.Node
	bestScore := math.Inf(1)
	for p, rep := range ix.parts {
		exec := env.Nodes[rep].ExecTime(tk.ScalarWork, tk.TensorWork, tk.Accel)
	scan:
		for k := 0; ; k++ {
			for k == len(o.parts[p].near) {
				if k == int(ix.size[p]) {
					o.parts[p].endRun() // every member is listed and scanned
					break scan
				}
				// The part's list is used up: settle the origin's next
				// vertex. Every vertex settled after it is at least as far.
				lat, ok := ix.extend(o, req.Origin)
				if !ok || lat+exec > bestScore {
					break scan
				}
			}
			c := &o.parts[p].near[k]
			if c.lat+exec > bestScore {
				break // the rest of the part is bounded at least this high
			}
			// move is MessageTime(origin, n.ID, ib) when ib > 0 (0 at the
			// origin itself) and Latency(origin, n.ID) otherwise.
			move := c.lat
			if ib > 0 && int(c.id) != req.Origin {
				move = c.lat + ib/c.bn
			}
			if b := move + exec; b > bestScore || (b == bestScore && best != nil && int(c.id) >= best.ID) {
				continue
			}
			n := env.Nodes[c.pos]
			backlog := float64(n.Cores.InUse()) + float64(n.Cores.QueueLen())
			wait := backlog * exec / float64(n.Spec.Cores)
			s := move + wait + exec
			if (best == nil || s < bestScore || (s == bestScore && n.ID < best.ID)) &&
				(env.Eligible == nil || env.Eligible(n)) {
				best, bestScore = n, s
			}
		}
	}
	if math.IsInf(bestScore, 1) {
		// No eligible candidate scored below +Inf, so no part stopped
		// early: each is unreachable or scores +Inf, and a full scan
		// breaks that tie on the lowest ID.
		for _, n := range env.Nodes {
			if (env.Eligible == nil || env.Eligible(n)) && (best == nil || n.ID < best.ID) {
				best = n
			}
		}
	}
	return best
}

// nearIndex is GreedyLatency's view of an Env's candidates. They are
// partitioned by the spec fields ExecTime reads, so every node of a part
// runs a given task in the same time, and the parts are ordered fastest
// cores first, so an early part tends to set a low best score. For each
// origin, each part lists its candidates in the order the origin's
// shortest-path search settles their vertices, which is nondecreasing
// latency; a list grows only as far as decisions need.
type nearIndex struct {
	net   *netsim.Network
	nodes []*node.Node // the candidate slice the index describes
	// parts holds one candidate position per part and size its member
	// count; partOf maps a position to its part.
	parts, size, partOf []int32
	// at[v] is the first candidate position at vertex v and next[i] the
	// one after position i there (-1 ends both).
	at, next []int32
	origins  []nearLists // by origin vertex
}

// nearLists is one origin's per-part candidate lists for one route
// epoch, built from the first settled vertices of its search.
type nearLists struct {
	epoch   uint64
	settled int
	parts   []nearList
}

// nearList is one part's listed candidates in nondecreasing latency.
// Each run of equal latency but the trailing one, which starts at run,
// is in ascending ID.
type nearList struct {
	near []near
	run  int
}

// endRun sorts the list's trailing run by ID and starts a new one. No
// scan may be inside the run.
func (l *nearList) endRun() {
	if len(l.near)-l.run > 1 {
		slices.SortStableFunc(l.near[l.run:], func(a, b near) int { return cmp.Compare(a.id, b.id) })
	}
	l.run = len(l.near)
}

// near is one listed candidate: the latency and bottleneck capacity of
// the origin's path to its vertex, its position in the candidates and
// its vertex (the node's ID).
type near struct {
	lat, bn float64
	pos, id int32
}

// execKey is what ExecTime reads from a spec.
type execKey struct {
	coreFlops, accelFlops float64
	accelKind             node.AccelKind
}

func execKeyOf(n *node.Node) execKey {
	k := execKey{coreFlops: n.CoreFlops}
	if n.Accel.Count > 0 {
		k.accelFlops, k.accelKind = n.Accel.Flops, n.Accel.Kind
	}
	return k
}

// origin returns the candidate lists for origin at the current route
// epoch. It rebuilds the index when env's network, candidate slice or
// vertex count is not the one it was built for.
func (ix *nearIndex) origin(env *Env, origin int) *nearLists {
	if ix.net != env.Net || len(ix.nodes) != len(env.Nodes) || (len(env.Nodes) > 0 && &ix.nodes[0] != &env.Nodes[0]) ||
		len(ix.origins) != env.Net.NumNodes() {
		ix.build(env)
	}
	o := &ix.origins[origin]
	if epoch := env.Net.RouteEpoch(); o.parts == nil || o.epoch != epoch {
		if o.parts == nil {
			o.parts = make([]nearList, len(ix.parts))
		}
		for p := range o.parts {
			o.parts[p] = nearList{near: o.parts[p].near[:0]}
		}
		o.epoch, o.settled = epoch, 0
	}
	return o
}

// extend appends the candidates at the origin's next settled vertex to
// their parts' lists and returns that vertex's latency, or ok false once
// every vertex reachable from the origin is settled. A vertex farther
// than a part's trailing run ends that run, so extend sorts it by ID. No
// scan is inside it: a scan extends only once it has used up its own
// part's list, and the other parts' scans of the decision have ended or
// not begun.
func (ix *nearIndex) extend(o *nearLists, origin int) (lat float64, ok bool) {
	v, lat, bn, ok := ix.net.Nearest(origin, o.settled)
	if !ok {
		return 0, false
	}
	o.settled++
	for i := ix.at[v]; i >= 0; i = ix.next[i] {
		l := &o.parts[ix.partOf[i]]
		if l.run < len(l.near) && l.near[l.run].lat < lat {
			l.endRun()
		}
		l.near = append(l.near, near{lat, bn, i, int32(v)})
	}
	return lat, true
}

// build partitions env's candidates by execKey, fastest cores first, and
// drops every origin's lists.
func (ix *nearIndex) build(env *Env) {
	byKey := make([]int32, len(env.Nodes))
	for i := range byKey {
		byKey[i] = int32(i)
	}
	key := func(i int32) execKey { return execKeyOf(env.Nodes[i]) }
	slices.SortFunc(byKey, func(a, b int32) int {
		ka, kb := key(a), key(b)
		return cmp.Or(cmp.Compare(kb.coreFlops, ka.coreFlops), cmp.Compare(kb.accelFlops, ka.accelFlops),
			cmp.Compare(ka.accelKind, kb.accelKind))
	})
	*ix = nearIndex{
		net: env.Net, nodes: env.Nodes,
		partOf: make([]int32, len(env.Nodes)), next: make([]int32, len(env.Nodes)),
		at: make([]int32, env.Net.NumNodes()), origins: make([]nearLists, env.Net.NumNodes()),
	}
	for i, pos := range byKey {
		if i == 0 || key(byKey[i-1]) != key(pos) {
			ix.parts, ix.size = append(ix.parts, pos), append(ix.size, 0)
		}
		ix.partOf[pos] = int32(len(ix.parts) - 1)
		ix.size[len(ix.size)-1]++
	}
	for v := range ix.at {
		ix.at[v] = -1
	}
	for i := len(env.Nodes) - 1; i >= 0; i-- {
		v := env.Nodes[i].ID
		ix.at[v], ix.next[i] = int32(i), ix.at[v]
	}
}

// DataAware is GreedyLatency plus replica knowledge: staging time is
// computed from the nearest replica (and is zero on a cache hit), so
// compute moves to data when data is big and to fast silicon when data is
// small — the continuum tradeoff the keynote centers on. It scores every
// candidate: a cache hit makes move 0, so GreedyLatency's bound does not
// hold here.
type DataAware struct{}

// Name implements Policy.
func (DataAware) Name() string { return "data-aware" }

// Select implements Policy.
func (DataAware) Select(env *Env, req Request) *node.Node {
	return argmin(env.Candidates(), func(n *node.Node) float64 {
		return EstimateLatency(env, req, n)
	})
}

// GreedyEnergy minimizes marginal joules.
type GreedyEnergy struct{}

// Name implements Policy.
func (GreedyEnergy) Name() string { return "greedy-energy" }

// Select implements Policy.
func (GreedyEnergy) Select(env *Env, req Request) *node.Node {
	return argmin(env.Candidates(), func(n *node.Node) float64 {
		return EstimateEnergy(env, req, n)
	})
}

// GreedyCost minimizes marginal dollars.
type GreedyCost struct{}

// Name implements Policy.
func (GreedyCost) Name() string { return "greedy-cost" }

// Select implements Policy.
func (GreedyCost) Select(env *Env, req Request) *node.Node {
	return argmin(env.Candidates(), func(n *node.Node) float64 {
		return EstimateDollars(env, req, n)
	})
}

// Weights configures a multi-objective scalarization. Each weight
// multiplies a normalized objective; zero drops the objective.
type Weights struct {
	Latency float64
	Energy  float64
	Dollars float64
}

// MultiObjective scores nodes by a weighted sum of normalized latency,
// energy and dollar estimates (normalized by the per-request minimum of
// each objective across candidates, so objectives are unit-free and
// comparable).
type MultiObjective struct {
	W Weights
}

// Name implements Policy.
func (m MultiObjective) Name() string {
	return fmt.Sprintf("multi(l=%.2g,e=%.2g,c=%.2g)", m.W.Latency, m.W.Energy, m.W.Dollars)
}

// Select implements Policy.
func (m MultiObjective) Select(env *Env, req Request) *node.Node {
	cands := env.Candidates()
	if len(cands) == 0 {
		return nil
	}
	st := env.shared()
	st.lat = slices.Grow(st.lat[:0], len(cands))[:len(cands)]
	st.eng = slices.Grow(st.eng[:0], len(cands))[:len(cands)]
	st.dol = slices.Grow(st.dol[:0], len(cands))[:len(cands)]
	lat, eng, dol := st.lat, st.eng, st.dol
	minLat, minEng, minDol := math.Inf(1), math.Inf(1), math.Inf(1)
	for i, n := range cands {
		lat[i] = EstimateLatency(env, req, n)
		eng[i] = EstimateEnergy(env, req, n)
		dol[i] = EstimateDollars(env, req, n)
		minLat = math.Min(minLat, lat[i])
		minEng = math.Min(minEng, eng[i])
		minDol = math.Min(minDol, dol[i])
	}
	norm := func(v, min float64) float64 {
		if min <= 0 {
			return v
		}
		return v / min
	}
	best, bestScore := cands[0], math.Inf(1)
	for i, n := range cands {
		s := m.W.Latency*norm(lat[i], minLat) +
			m.W.Energy*norm(eng[i], minEng) +
			m.W.Dollars*norm(dol[i], minDol)
		if s < bestScore || (s == bestScore && n.ID < best.ID) {
			best, bestScore = n, s
		}
	}
	return best
}
