// Package data is the continuum's data fabric: named datasets with
// replicas pinned at home sites, per-node stores with configurable
// eviction (LRU, LFU, 2-random), and a staging engine that moves bytes
// over the simulated network — the Globus-transfer analogue of the
// reproduction.
//
// Staging coalesces concurrent requests for the same (dataset, node) pair
// into one transfer, and records hit/miss/bytes statistics for the caching
// experiments.
package data

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"continuum/internal/netsim"
	"continuum/internal/workload"
)

// Dataset names an immutable blob of a known size.
type Dataset struct {
	Name  string
	Bytes float64
}

// Policy selects a cache eviction strategy.
type Policy int

// Supported eviction policies.
const (
	LRU Policy = iota
	LFU
	TwoRandom
	// NoCache stores nothing: every access is a miss. Useful baseline.
	NoCache
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case TwoRandom:
		return "2random"
	case NoCache:
		return "nocache"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

type entry struct {
	ds       Dataset
	pinned   bool
	lastUsed float64
	freq     int64
}

// Store is one node's dataset holdings: pinned home replicas plus an
// evictable cache bounded by Capacity.
type Store struct {
	NodeID   int
	Capacity float64 // evictable-cache byte budget; pinned data is exempt
	Pol      Policy

	entries map[string]*entry
	used    float64 // bytes of unpinned (cache) entries

	// Hits/Misses/Evictions/BytesInserted summarize cache behaviour.
	Hits, Misses, Evictions int64
	BytesInserted           float64
}

// Fabric tracks datasets, replicas, and staging over a network.
type Fabric struct {
	net    *netsim.Network
	rng    *workload.RNG
	stores map[int]*Store

	inflight map[string][]func(bool) // key: name@node -> waiting callbacks

	// BytesMoved is the total bytes transferred by staging; WANBytes can be
	// derived per-link from the network's counters.
	BytesMoved float64
	// Stages counts Stage calls; Coalesced counts calls absorbed into an
	// in-flight transfer.
	Stages, Coalesced int64
}

// NewFabric creates a fabric over net. The RNG drives 2-random eviction.
func NewFabric(net *netsim.Network, rng *workload.RNG) *Fabric {
	return &Fabric{
		net:      net,
		rng:      rng,
		stores:   make(map[int]*Store),
		inflight: make(map[string][]func(bool)),
	}
}

// AddStore registers a store at node id with the given cache capacity in
// bytes (0 allows only pinned data) and eviction policy.
func (f *Fabric) AddStore(nodeID int, capacity float64, pol Policy) *Store {
	if capacity < 0 {
		panic(fmt.Sprintf("data: negative capacity %v", capacity))
	}
	if _, dup := f.stores[nodeID]; dup {
		panic(fmt.Sprintf("data: duplicate store for node %d", nodeID))
	}
	s := &Store{NodeID: nodeID, Capacity: capacity, Pol: pol, entries: make(map[string]*entry)}
	f.stores[nodeID] = s
	return s
}

// Pin places a permanent replica of ds at node id (its "home"); pinned
// replicas never evict and do not consume cache budget.
func (f *Fabric) Pin(ds Dataset, nodeID int) {
	s := f.stores[nodeID]
	if s == nil {
		panic(fmt.Sprintf("data: no store at node %d", nodeID))
	}
	s.entries[ds.Name] = &entry{ds: ds, pinned: true}
}

// Holds reports whether node id currently holds name.
func (f *Fabric) Holds(nodeID int, name string) bool {
	s := f.stores[nodeID]
	if s == nil {
		return false
	}
	_, ok := s.entries[name]
	return ok
}

// Locate returns the ids of all nodes holding name, in unspecified order.
func (f *Fabric) Locate(name string) []int {
	var out []int
	for id, s := range f.stores { //det: unspecified order; NearestReplica breaks ties on id
		if _, ok := s.entries[name]; ok {
			out = append(out, id)
		}
	}
	return out
}

// NearestReplica returns the holder of name with minimum network latency
// to nodeID, or an error if no replica exists.
func (f *Fabric) NearestReplica(name string, nodeID int) (int, error) {
	best, bestLat := -1, math.Inf(1)
	for _, id := range f.Locate(name) {
		lat := f.net.Latency(id, nodeID)
		// Deterministic tie-break on id keeps runs reproducible.
		if lat < bestLat || (lat == bestLat && (best == -1 || id < best)) {
			best, bestLat = id, lat
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("data: no replica of %q", name)
	}
	return best, nil
}

// StageTime estimates how long Stage would take right now, uncontended:
// 0 for a local hit, otherwise the transfer time from the nearest replica.
func (f *Fabric) StageTime(ds Dataset, nodeID int) float64 {
	if f.Holds(nodeID, ds.Name) {
		return 0
	}
	src, err := f.NearestReplica(ds.Name, nodeID)
	if err != nil {
		return math.Inf(1)
	}
	return f.net.TransferTime(src, nodeID, ds.Bytes)
}

// Stage makes ds available at nodeID, then calls done(hit) — hit is true
// when the dataset was already local. Misses transfer from the nearest
// replica and insert into the node's cache (evicting per policy).
// Concurrent stages of the same dataset to the same node share one
// transfer. Stage panics if no replica of the dataset exists anywhere.
func (f *Fabric) Stage(ds Dataset, nodeID int, done func(hit bool)) {
	f.Stages++
	s := f.stores[nodeID]
	if s == nil {
		panic(fmt.Sprintf("data: no store at node %d", nodeID))
	}
	now := f.net.Kernel().Now()
	if e, ok := s.entries[ds.Name]; ok {
		s.Hits++
		e.lastUsed = now
		e.freq++
		if done != nil {
			done(true)
		}
		return
	}
	s.Misses++
	key := ds.Name + "@" + itoa(nodeID)
	if waiters, busy := f.inflight[key]; busy {
		f.Coalesced++
		f.inflight[key] = append(waiters, done)
		return
	}
	f.inflight[key] = []func(bool){done}
	src, err := f.NearestReplica(ds.Name, nodeID)
	if err != nil {
		panic(err)
	}
	f.net.Transfer(src, nodeID, ds.Bytes, func(*netsim.Flow) {
		f.BytesMoved += ds.Bytes
		s.insert(ds, f.net.Kernel().Now(), f.rng)
		waiters := f.inflight[key]
		delete(f.inflight, key)
		for _, w := range waiters {
			if w != nil {
				w(false)
			}
		}
	})
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// insert adds ds as an unpinned cache entry, evicting per policy until it
// fits. Datasets larger than the whole cache are used but not retained.
func (s *Store) insert(ds Dataset, now float64, rng *workload.RNG) {
	if s.Pol == NoCache || ds.Bytes > s.Capacity {
		return
	}
	if _, ok := s.entries[ds.Name]; ok {
		return // raced with another insert; already present
	}
	for s.used+ds.Bytes > s.Capacity {
		if !s.evictOne(rng) {
			return // nothing evictable; give up retaining
		}
	}
	s.entries[ds.Name] = &entry{ds: ds, lastUsed: now, freq: 1}
	s.used += ds.Bytes
	s.BytesInserted += ds.Bytes
}

// evictOne removes one unpinned entry per the policy, reporting success.
func (s *Store) evictOne(rng *workload.RNG) bool {
	var victim *entry
	switch s.Pol {
	case LRU:
		for _, e := range s.entries { //det: a minimum with ties broken by the unique name
			if e.pinned {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed ||
				(e.lastUsed == victim.lastUsed && e.ds.Name < victim.ds.Name) {
				victim = e
			}
		}
	case LFU:
		for _, e := range s.entries { //det: a minimum with ties broken by the unique name
			if e.pinned {
				continue
			}
			if victim == nil || e.freq < victim.freq ||
				(e.freq == victim.freq && e.ds.Name < victim.ds.Name) {
				victim = e
			}
		}
	case TwoRandom:
		// Choose two random unpinned entries, evict the least recently
		// used of the pair — the classic power-of-two-choices
		// approximation to LRU without a global ordering. The pool is
		// ordered by name so the seeded draws pick the same victims on
		// every run.
		var pool []*entry
		for _, e := range s.entries { //det: pool is sorted below
			if !e.pinned {
				pool = append(pool, e)
			}
		}
		if len(pool) == 0 {
			return false
		}
		slices.SortFunc(pool, func(a, b *entry) int { return strings.Compare(a.ds.Name, b.ds.Name) })
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		victim = a
		if b.lastUsed < a.lastUsed {
			victim = b
		}
	default:
		return false
	}
	if victim == nil {
		return false
	}
	delete(s.entries, victim.ds.Name)
	s.used -= victim.ds.Bytes
	s.Evictions++
	return true
}

// HitRate returns Hits/(Hits+Misses), or 0 when unused.
func (s *Store) HitRate() float64 {
	tot := s.Hits + s.Misses
	if tot == 0 {
		return 0
	}
	return float64(s.Hits) / float64(tot)
}
