package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"continuum/internal/sim"
)

// Flow is an in-progress bulk transfer sharing link bandwidth with other
// flows. Rates follow max-min fairness, recomputed by progressive filling
// whenever any flow starts or completes.
type Flow struct {
	From, To int
	path     []*Link

	remaining  float64 // bytes left to deliver
	rate       float64 // current allocated bytes/sec
	lastUpdate float64 // virtual time of last remaining/rate update

	timer sim.Timer // pending completion event
	done  func(*Flow)
	net   *Network

	// Start and Finish record flow lifetime; Finish is zero until complete.
	Start, Finish float64
	// Size is the original transfer size in bytes.
	Size float64
}

// Rate returns the flow's current allocated bandwidth in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// Transfer starts a bulk transfer of size bytes from a to b. The flow
// becomes bandwidth-active after the path propagation delay; done (may be
// nil) fires when the last byte is delivered. Same-node transfers complete
// immediately. Transfer panics if b is unreachable or size is negative.
func (n *Network) Transfer(a, b int, size float64, done func(*Flow)) *Flow {
	if size < 0 {
		panic(fmt.Sprintf("netsim: negative transfer size %v", size))
	}
	f := &Flow{From: a, To: b, Size: size, remaining: size, net: n, done: done, Start: n.k.Now()}
	if a == b || size == 0 {
		n.k.After(0, func() { f.complete() })
		return f
	}
	path, err := n.Path(a, b)
	if err != nil {
		panic(err)
	}
	f.path = path
	// The flow joins bandwidth contention after propagation: the pipe fills,
	// then bytes drain at the fair-shared rate.
	n.k.After(n.Latency(a, b), func() {
		f.lastUpdate = n.k.Now()
		n.active = append(n.active, f)
		for _, l := range f.path {
			l.flows = append(l.flows, f)
		}
		n.reallocate()
	})
	return f
}

func (f *Flow) complete() {
	f.Finish = f.net.k.Now()
	f.net.Transfers++
	for _, l := range f.path {
		l.BytesCarried += f.Size
	}
	if f.done != nil {
		f.done(f)
	}
}

// advance charges progress since lastUpdate against remaining bytes.
func (f *Flow) advance(now float64) {
	f.remaining -= f.rate * (now - f.lastUpdate)
	if f.remaining < 0 {
		f.remaining = 0
	}
	f.lastUpdate = now
}

// reallocate recomputes max-min fair rates for all active flows
// (progressive filling) and reschedules completion events. Called whenever
// a flow joins or leaves. Flows are visited in join order and links in ID
// order, and a bottleneck tie goes to the lower link ID, so equal shares
// and equal ETAs resolve the same way on every run.
func (n *Network) reallocate() {
	now := n.k.Now()
	touched := n.touched[:0]
	for _, f := range n.active {
		f.advance(now)
		f.timer.Cancel()
		f.timer = sim.Timer{}
		f.rate = -1 // unfrozen marker
		for _, l := range f.path {
			if l.unfrozen == 0 {
				l.avail = l.Capacity
				touched = append(touched, l)
			}
			l.unfrozen++
		}
	}
	slices.SortFunc(touched, func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) })
	n.touched = touched

	// Progressive filling: repeatedly saturate the tightest link.
	unfrozen := len(n.active)
	for unfrozen > 0 {
		// Find the bottleneck: link minimizing avail/unfrozen over links
		// with unfrozen flows.
		var bottleneck *Link
		best := math.Inf(1)
		for _, l := range touched {
			if l.unfrozen == 0 {
				continue
			}
			if share := l.avail / float64(l.unfrozen); share < best {
				best = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break // only +Inf-capacity links left
		}
		// Freeze every unfrozen flow through the bottleneck at the fair
		// share; charge its rate to all its links.
		for _, f := range bottleneck.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = best
			unfrozen--
			for _, l := range f.path {
				l.avail -= best
				if l.avail < 0 {
					l.avail = 0
				}
				l.unfrozen--
			}
		}
	}

	for _, l := range touched {
		l.unfrozen = 0
	}

	// Schedule completions at the new rates.
	for _, f := range n.active {
		if f.rate <= 0 {
			// Degenerate (should not happen on positive-capacity links);
			// avoid scheduling at +Inf.
			continue
		}
		eta := f.remaining / f.rate
		f.timer = n.k.After(eta, func(f *Flow) func() {
			return func() { n.finishFlow(f) }
		}(f))
	}
}

func (n *Network) finishFlow(f *Flow) {
	f.advance(n.k.Now())
	n.active = slices.DeleteFunc(n.active, func(g *Flow) bool { return g == f })
	for _, l := range f.path {
		l.flows = slices.DeleteFunc(l.flows, func(g *Flow) bool { return g == f })
	}
	f.timer = sim.Timer{}
	f.rate = 0
	// Don't double-count bytes: complete() adds Size once.
	f.complete()
	n.reallocate()
}

// TransferTime returns the uncontended time a size-byte transfer from a to
// b would take (propagation + size/bottleneck), without starting one.
// It returns +Inf if unreachable.
func (n *Network) TransferTime(a, b int, size float64) float64 {
	return n.MessageTime(a, b, size)
}
