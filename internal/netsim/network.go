// Package netsim is the network substrate of the continuum simulator: a
// directed topology of links with propagation latency (speed-of-light
// delays) and finite bandwidth, shortest-path routing, and flow-level
// transfer simulation with max-min fair bandwidth sharing (the standard
// flow-level model used by SimGrid-class simulators).
//
// Two transfer APIs are offered:
//
//   - Transfer: a long-lived flow that contends with other flows for link
//     bandwidth; rates are recomputed with progressive filling whenever any
//     flow starts or ends.
//   - Message: an analytic, uncontended small-message send (propagation +
//     size/bottleneck); appropriate for telemetry and control traffic whose
//     bandwidth footprint is negligible.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"continuum/internal/sim"
)

// SpeedOfLightFiber is the propagation speed in optical fiber, km/s
// (roughly 2/3 of c in vacuum).
const SpeedOfLightFiber = 200000.0

// PropagationDelay returns the one-way fiber propagation delay for a
// distance in kilometers.
func PropagationDelay(km float64) float64 {
	return km / SpeedOfLightFiber
}

// Link is a directed edge with propagation latency and capacity.
type Link struct {
	ID       int
	From, To int
	Latency  float64 // one-way propagation, seconds
	Capacity float64 // bytes/second

	// flows crossing the link in join order; avail and unfrozen are
	// reallocate's scratch state (unfrozen is 0 between calls).
	flows    []*Flow
	avail    float64
	unfrozen int

	// BytesCarried accumulates delivered bytes for accounting (egress
	// billing, WAN savings experiments).
	BytesCarried float64
}

// Network is a topology bound to a simulation kernel. Its shortest-path
// searches run in storage taken from a store shared by every network,
// and hand it back when routes are dropped (DropRoutes): a network that
// is thrown away after a run should drop its routes first, so the next
// network's searches reuse that storage instead of allocating it.
type Network struct {
	k     *sim.Kernel
	adj   [][]*Link
	links []*Link

	// active holds the bandwidth-active flows in join order; touched is
	// reallocate's scratch list of the links they cross.
	active  []*Flow
	touched []*Link

	// spt holds the shortest-path search per source vertex (hops nil
	// until first asked); every topology change drops them all. Routing
	// is latency-static, so caching is exact. started lists the sources
	// searched since routes were last dropped, so building a topology
	// link by link does not walk an all-empty cache V times (O(V²)).
	spt     []search
	started []int32
	// epoch counts route drops (see RouteEpoch).
	epoch uint64

	// Transfers counts completed Transfer flows; Messages counts Message
	// sends; Searches counts shortest-path searches started, at most one
	// per source vertex per route epoch.
	Transfers, Messages, Searches int64
}

// search is a resumable Dijkstra from one source. It settles vertices
// only as far as a query needs, and every pop and relaxation is the one
// a full run makes at the same step, so each settled entry is the full
// run's entry bit for bit. Its storage comes from the shared store and
// goes back there when routes are dropped (the heap as soon as the
// search is exhausted).
type search struct {
	hops  []hop
	pq    nodeHeap // nil once every reachable vertex is settled
	order []int32  // settled vertices, nearest first
}

// hop is one destination's entry: dist is the path latency, summed from
// the source outward ((0+l₁)+l₂)+… exactly as a walk of the path would;
// bn is the path's minimum link capacity (+Inf at the source, 0 when
// unreachable); prev is the ID of the incoming link (-1 at the source
// and when unreachable). Until settled, dist, bn and prev are tentative.
type hop struct {
	dist, bn float64
	prev     int32
	settled  bool
}

// New creates a network with n nodes and no links.
func New(k *sim.Kernel, n int) *Network {
	if n < 0 {
		panic("netsim: negative node count")
	}
	return &Network{
		k:   k,
		adj: make([][]*Link, n),
		spt: make([]search, n),
	}
}

// Kernel returns the simulation kernel.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// NumNodes returns the number of topology vertices.
func (n *Network) NumNodes() int { return len(n.adj) }

// AddNode appends a vertex and returns its id.
func (n *Network) AddNode() int {
	n.adj = append(n.adj, nil)
	n.spt = append(n.spt, search{})
	n.DropRoutes()
	return len(n.adj) - 1
}

// AddLink adds a directed link and returns it. Latency must be >= 0 and
// capacity > 0.
func (n *Network) AddLink(from, to int, latency, capacity float64) *Link {
	n.checkNode(from)
	n.checkNode(to)
	if latency < 0 {
		panic(fmt.Sprintf("netsim: negative latency %v", latency))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: capacity %v <= 0", capacity))
	}
	l := &Link{
		ID: len(n.links), From: from, To: to,
		Latency: latency, Capacity: capacity,
	}
	n.links = append(n.links, l)
	n.adj[from] = append(n.adj[from], l)
	n.DropRoutes()
	return l
}

// AddDuplexLink adds a pair of directed links (one each way) with the same
// latency and per-direction capacity, returning both.
func (n *Network) AddDuplexLink(a, b int, latency, capacity float64) (ab, ba *Link) {
	return n.AddLink(a, b, latency, capacity), n.AddLink(b, a, latency, capacity)
}

// SetLinkParams retunes a link's latency and capacity mid-simulation
// (scenario link-degradation events). Routing is latency-based, so the
// shortest-path cache is invalidated; flows already crossing the link
// keep their negotiated rates until the next flow event recomputes them,
// matching how a real router change affects in-flight traffic.
func (n *Network) SetLinkParams(l *Link, latency, capacity float64) {
	if latency < 0 {
		panic(fmt.Sprintf("netsim: negative latency %v", latency))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: capacity %v <= 0", capacity))
	}
	l.Latency = latency
	l.Capacity = capacity
	n.DropRoutes()
}

// DropRoutes drops every shortest-path search, hands its storage to the
// store that searches on every network share, and advances the route
// epoch. Topology changes call it; so should the owner of a network it
// is done with, so the next network's searches reuse the storage instead
// of allocating it. Routes are a cache: a later query searches again and
// gets the same entries bit for bit.
func (n *Network) DropRoutes() {
	n.epoch++
	if len(n.started) == 0 {
		return
	}
	store.Lock()
	for _, src := range n.started {
		s := &n.spt[src]
		store.searches = append(store.searches, *s)
		*s = search{}
	}
	store.Unlock()
	n.started = n.started[:0]
}

// store holds the storage of dropped searches for the next searches on
// any network to reuse. Each scenario run builds a network and throws it
// away, so without it every run would allocate its searches afresh.
// searches holds hop slices with their settled orders, and with their
// heaps unless the search ran out: an exhausted search hands its heap to
// heaps at once, for another search of the same run to reuse, and take
// pairs the two again. The lists sit under a mutex, not in a
// sync.Pool: a pool drops what two collections find idle, and a Get
// running on one P cannot reach a Put left in another P's private slot,
// so a run could find it short and allocate a search's storage afresh.
// The lists free nothing: they hold the storage of the most searches
// that were live at once.
var store struct {
	sync.Mutex
	searches []search
	heaps    []nodeHeap
}

// take returns storage from the store: a dropped search's, with a heap
// from an exhausted one if it has none of its own. It returns none when
// the store is empty.
func take() search {
	store.Lock()
	defer store.Unlock()
	var st search
	if k := len(store.searches); k > 0 {
		st, store.searches[k-1] = store.searches[k-1], search{}
		store.searches = store.searches[:k-1]
	}
	if k := len(store.heaps); st.pq == nil && k > 0 {
		st.pq, store.heaps[k-1] = store.heaps[k-1], nil
		store.heaps = store.heaps[:k-1]
	}
	return st
}

// RouteEpoch identifies the current routes: it changes whenever a
// topology change (AddNode, AddLink, SetLinkParams) may have changed a
// path latency, and on DropRoutes, so a caller holding values derived
// from Latency can tell when to rebuild them.
func (n *Network) RouteEpoch() uint64 { return n.epoch }

func (n *Network) checkNode(id int) {
	if id < 0 || id >= len(n.adj) {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", id, len(n.adj)))
	}
}

// search returns the shortest-path search from src, starting it on
// first use in storage from the store. Every hop is re-initialised and
// the order and heap are emptied, so nothing of an earlier tenant, on
// this network or another, survives.
func (n *Network) search(src int) *search {
	n.checkNode(src)
	s := &n.spt[src]
	if s.hops == nil {
		*s = take()
		if cap(s.hops) < len(n.adj) {
			s.hops = make([]hop, len(n.adj))
		}
		s.hops = s.hops[:len(n.adj)]
		for i := range s.hops {
			s.hops[i] = hop{dist: math.Inf(1), prev: -1}
		}
		s.hops[src] = hop{dist: 0, bn: math.Inf(1), prev: -1}
		s.order = s.order[:0]
		s.pq = append(s.pq[:0], nodeDist{src, 0})
		n.started = append(n.started, int32(src))
		n.Searches++
	}
	return s
}

// step settles the next vertex of s and reports false once every
// reachable vertex is settled. A vertex's entry is final once it pops
// (latencies are >= 0), so deriving dist and bn from the popped
// predecessor equals a walk of the final path.
func (n *Network) step(s *search) bool {
	for len(s.pq) > 0 {
		it := s.pq.pop()
		h := &s.hops[it.id]
		if it.d > h.dist {
			continue
		}
		h.settled = true
		s.order = append(s.order, int32(it.id))
		for _, l := range n.adj[it.id] {
			nd := it.d + l.Latency
			if nd < s.hops[l.To].dist {
				s.hops[l.To] = hop{dist: nd, bn: min(h.bn, l.Capacity), prev: int32(l.ID)}
				s.pq.push(nodeDist{l.To, nd})
			}
		}
		return true
	}
	if s.pq != nil {
		store.Lock()
		store.heaps = append(store.heaps, s.pq)
		store.Unlock()
		s.pq = nil
	}
	return false
}

// to returns the settled entry for the path a→b, searching from a only
// until b is settled (or every reachable vertex is).
func (n *Network) to(a, b int) hop {
	s := n.search(a)
	n.checkNode(b)
	for !s.hops[b].settled && n.step(s) {
	}
	return s.hops[b]
}

// Nearest returns the i-th vertex (from 0) in nondecreasing order of
// latency from src, that latency and the path's bottleneck capacity (its
// minimum link capacity, +Inf for src itself), extending the search from
// src only as far as i. src itself is vertex 0. ok is false when fewer
// than i+1 vertices are reachable.
func (n *Network) Nearest(src, i int) (v int, latency, bottleneck float64, ok bool) {
	s := n.search(src)
	for len(s.order) <= i {
		if !n.step(s) {
			return 0, 0, 0, false
		}
	}
	v = int(s.order[i])
	return v, s.hops[v].dist, s.hops[v].bn, true
}

// Path returns the minimum-latency link path from a to b, or an error if b
// is unreachable. Same-node paths are empty and nil error.
func (n *Network) Path(a, b int) ([]*Link, error) {
	n.checkNode(a)
	n.checkNode(b)
	if a == b {
		return nil, nil
	}
	if n.to(a, b).prev < 0 {
		return nil, &UnreachableError{From: a, To: b}
	}
	t := n.spt[a].hops // settled along the path by n.to
	hops := 0
	for at := b; at != a; at = n.links[t[at].prev].From {
		hops++
	}
	path := make([]*Link, hops)
	for at := b; at != a; at = n.links[t[at].prev].From {
		hops--
		path[hops] = n.links[t[at].prev]
	}
	return path, nil
}

// UnreachableError reports that no path leads from From to To.
type UnreachableError struct{ From, To int }

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("netsim: node %d unreachable from %d", e.To, e.From)
}

// Latency returns the one-way minimum propagation latency from a to b, or
// +Inf if unreachable.
func (n *Network) Latency(a, b int) float64 {
	if a == b {
		return 0
	}
	return n.to(a, b).dist
}

type nodeDist struct {
	id int
	d  float64
}

// nodeHeap is a binary min-heap on d. push and pop make exactly the
// swaps container/heap's Push and Pop make, so equal keys pop in the
// same order (and give the same shortest-path tree), without boxing each
// entry into an interface.
type nodeHeap []nodeDist

func (h *nodeHeap) push(x nodeDist) {
	q := append(*h, x)
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

func (h *nodeHeap) pop() nodeDist {
	q := *h
	last := len(q) - 1
	q[0], q[last] = q[last], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= last {
			break
		}
		if j+1 < last && q[j+1].d < q[j].d {
			j++
		}
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:last]
	return q[last]
}

// Message schedules fn after the uncontended delivery time of a size-byte
// message from a to b: path propagation plus size/bottleneck transmission.
// It panics if b is unreachable (callers route over connected topologies).
func (n *Network) Message(a, b int, size float64, fn func()) {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative message size %v", size))
	}
	n.Messages++
	if a == b {
		n.k.After(0, fn)
		return
	}
	h := n.to(a, b)
	if h.prev < 0 {
		panic(&UnreachableError{From: a, To: b})
	}
	t := n.spt[a].hops // settled along the path by n.to
	for at := b; at != a; {
		l := n.links[t[at].prev]
		l.BytesCarried += size
		at = l.From
	}
	n.k.After(h.time(size), fn)
}

// MessageTime returns the uncontended delivery time Message would use,
// without sending anything. It returns +Inf if unreachable.
func (n *Network) MessageTime(a, b int, size float64) float64 {
	if a == b {
		return 0
	}
	return n.to(a, b).time(size)
}

// time is the uncontended delivery time of size bytes along the entry's
// path: propagation plus size/bottleneck (+Inf when unreachable).
func (h hop) time(size float64) float64 {
	if size > 0 && h.prev >= 0 {
		return h.dist + size/h.bn
	}
	return h.dist
}
