package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Group runs several independent Kernels ("shards") with conservative
// barrier synchronization, so per-node timelines that interact only at
// known points can execute in parallel across cores while producing
// output bit-identical to a serial run.
//
// The synchronization model is classic conservative parallel DES
// (Chandy–Misra windows): every cross-shard interaction must be posted
// through Post with a delivery time at least Lookahead beyond the
// sender's clock. Run then repeats three steps until no work remains:
//
//  1. deliver all buffered posts, in (sending shard, post order) —
//     a deterministic order independent of worker scheduling;
//  2. find T, the minimum next-event time across shards, and set the
//     window W = T + Lookahead;
//  3. run every shard up to W — serially with workers <= 1, or on a
//     worker pool otherwise. Within a window shards cannot affect each
//     other (any new cross-shard message lands at >= W), so the events
//     each shard executes are identical in both modes; only wall-clock
//     time differs.
//
// Each shard's events run on a single goroutine at a time, so event
// callbacks need no locking as long as they touch only their own shard's
// state (plus Post).
type Group struct {
	shards    []*Kernel
	lookahead float64
	posts     [][]post // buffered cross-shard messages, indexed by source shard
}

type post struct {
	dst int
	at  float64
	fn  func()
}

// NewGroup creates n shards with the given lookahead (the minimum
// cross-shard latency, in virtual seconds). Lookahead must be positive:
// a zero-lookahead message could violate the window in flight.
func NewGroup(n int, lookahead float64) *Group {
	if n <= 0 {
		panic(fmt.Sprintf("sim: group needs at least one shard, got %d", n))
	}
	if !(lookahead > 0) || math.IsInf(lookahead, 1) {
		panic(fmt.Sprintf("sim: group lookahead must be positive and finite, got %v", lookahead))
	}
	g := &Group{
		shards:    make([]*Kernel, n),
		lookahead: lookahead,
		posts:     make([][]post, n),
	}
	for i := range g.shards {
		g.shards[i] = NewKernel()
	}
	return g
}

// Shard returns the i'th kernel for scheduling that shard's own events.
func (g *Group) Shard(i int) *Kernel { return g.shards[i] }

// Lookahead returns the group's minimum cross-shard latency.
func (g *Group) Lookahead() float64 { return g.lookahead }

// Post schedules fn on shard dst at absolute virtual time at, from an
// event currently executing on shard src. The delivery time must be at
// least src.Now()+Lookahead — that slack is what lets shards run a whole
// window without observing each other. Delivery is buffered and applied
// at the next barrier in (src, post order), so the schedule order — and
// therefore the (time, seq) tie-break — is identical no matter how many
// workers ran the window.
func (g *Group) Post(src, dst int, at float64, fn func()) {
	now := g.shards[src].Now()
	if at < now+g.lookahead {
		panic(fmt.Sprintf("sim: post at %v violates lookahead %v from shard %d at %v",
			at, g.lookahead, src, now))
	}
	g.posts[src] = append(g.posts[src], post{dst: dst, at: at, fn: fn})
}

// Run executes all shards to completion using up to workers goroutines
// per window (workers <= 1 means fully serial) and returns the total
// number of events fired. Output is bit-identical across worker counts:
// the window boundaries, the post delivery order, and each shard's
// internal event order are all independent of scheduling.
func (g *Group) Run(workers int) uint64 {
	if workers < 1 {
		workers = 1
	}
	if workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}
	var total uint64
	for {
		// Deliver buffered posts in deterministic (src, order) sequence.
		for src := range g.posts {
			for _, p := range g.posts[src] {
				g.shards[p.dst].At(p.at, p.fn)
			}
			g.posts[src] = g.posts[src][:0]
		}
		// Next window: [T, T+lookahead] where T is the global minimum.
		t := math.Inf(1)
		for _, k := range g.shards {
			if nt := k.NextTime(); nt < t {
				t = nt
			}
		}
		if math.IsInf(t, 1) {
			return total
		}
		w := t + g.lookahead
		// runTo, unlike RunUntil, leaves each shard's clock at its last
		// event rather than at w: a shard's clock must not outrun its own
		// events, or a later window starting before w would look like the
		// past.
		if workers == 1 || len(g.shards) == 1 {
			for _, k := range g.shards {
				total += uint64(k.runTo(w))
			}
			continue
		}
		var cursor int64 = -1
		counts := make([]int, len(g.shards))
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&cursor, 1))
					if i >= len(g.shards) {
						return
					}
					counts[i] = g.shards[i].runTo(w)
				}
			}()
		}
		wg.Wait()
		for _, c := range counts {
			total += uint64(c)
		}
	}
}
