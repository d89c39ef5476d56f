package placement

import (
	"cmp"
	"slices"

	"continuum/internal/netsim"
	"continuum/internal/node"
)

// latencyIndex is GreedyLatency's view of an Env's candidates. They are
// partitioned by the spec fields ExecTime reads, so every node of a part
// runs a given task in the same time, and for each origin each part is
// sorted by (Latency(origin, n), ID). An origin's order is built on first
// use and rebuilt after the network's route epoch moves.
type latencyIndex struct {
	net   *netsim.Network
	nodes []*node.Node // the candidate slice the parts describe
	// base holds candidate positions grouped by part, in Nodes order
	// within a part; part p is base[ends[p-1]:ends[p]].
	base []int32
	ends []int
	// byOrigin is indexed by origin vertex.
	byOrigin []originOrder
	keys     []sortKey // sort scratch
}

// originOrder is base re-sorted for one origin: each part ascending by
// (latency from the origin, node ID).
type originOrder struct {
	built bool
	epoch uint64
	pos   []int32
}

type sortKey struct {
	lat float64
	id  int
	pos int32
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

// order returns env's candidate positions sorted for origin, part by
// part. It repartitions when env's network or candidate slice is not the
// one the index was built for.
func (ix *latencyIndex) order(env *Env, origin int) []int32 {
	if ix.net != env.Net || len(ix.nodes) != len(env.Nodes) || (len(env.Nodes) > 0 && &ix.nodes[0] != &env.Nodes[0]) {
		ix.partition(env)
	}
	if origin >= len(ix.byOrigin) {
		ix.byOrigin = append(ix.byOrigin, make([]originOrder, max(origin+1, env.Net.NumNodes())-len(ix.byOrigin))...)
	}
	o := &ix.byOrigin[origin]
	epoch := env.Net.RouteEpoch()
	if o.built && o.epoch == epoch {
		return o.pos
	}
	// Read every sort key once, then sort: the comparator never touches
	// the network.
	keys := ix.keys[:0]
	for _, i := range ix.base {
		n := ix.nodes[i]
		keys = append(keys, sortKey{lat: env.Net.Latency(origin, n.ID), id: n.ID, pos: i})
	}
	start := 0
	for _, end := range ix.ends {
		slices.SortFunc(keys[start:end], func(a, b sortKey) int {
			switch { // latencies are never NaN
			case a.lat < b.lat:
				return -1
			case a.lat > b.lat:
				return 1
			}
			return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.pos, b.pos))
		})
		start = end
	}
	o.pos = o.pos[:0]
	for _, k := range keys {
		o.pos = append(o.pos, k.pos)
	}
	o.built, o.epoch, ix.keys = true, epoch, keys
	return o.pos
}

// partition groups env's candidates by execKey (fastest cores first, so
// an early part tends to set a low best score) and drops every origin
// order.
func (ix *latencyIndex) partition(env *Env) {
	base := make([]int32, len(env.Nodes))
	for i := range base {
		base[i] = int32(i)
	}
	key := func(i int32) execKey { return execKeyOf(env.Nodes[i]) }
	slices.SortFunc(base, func(a, b int32) int {
		ka, kb := key(a), key(b)
		return cmp.Or(cmp.Compare(kb.coreFlops, ka.coreFlops), cmp.Compare(kb.accelFlops, ka.accelFlops),
			cmp.Compare(ka.accelKind, kb.accelKind), cmp.Compare(a, b))
	})
	*ix = latencyIndex{net: env.Net, nodes: env.Nodes, base: base}
	for i := range base {
		if i+1 == len(base) || key(base[i]) != key(base[i+1]) {
			ix.ends = append(ix.ends, i+1)
		}
	}
}
