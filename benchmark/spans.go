package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"continuum/internal/trace"
)

// layer names one wrapper position inside a tree.
type layer int8

const layerNone layer = -1

// tree is the shape the wrappers' spans nest in: a name and a parent
// per layer. Exactly one layer, the root, has no parent.
type tree struct {
	names   []string
	parents []layer
}

// The live path's wrapper positions; the names are the module names.
const (
	layerClient  layer = iota // caller-observed invoke (root)
	layerRouter               // federation.Router.InvokeContext
	layerPolicy               // federation.Policy.Order
	layerDaemon               // faas.Endpoint.InvokeContext
	layerHandler              // the registered faas.Handler
)

var liveNames = []string{"client", "federation.router", "federation.policy", "faas.endpoint", "faas.handler"}

// liveTree returns the live span tree: with no router in the path the
// daemon span is the client span's child.
func liveTree(routed bool) tree {
	t := tree{names: liveNames, parents: []layer{layerNone, layerClient, layerRouter, layerRouter, layerDaemon}}
	if !routed {
		t.parents[layerDaemon] = layerClient
	}
	return t
}

// span is one wrapper call: which layer, which request (the request
// number in the payload's first 8 bytes is the shared id), and when, in
// nanoseconds since the recorder's epoch.
type span struct {
	Layer      layer
	Req        uint64
	Start, End int64
}

// recorder keeps spans in memory, one append-only list per layer so the
// wrappers of different layers do not contend on one lock.
type recorder struct {
	epoch  time.Time
	layers []recorderLayer
}

type recorderLayer struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder(t tree) *recorder {
	return &recorder{epoch: time.Now(), layers: make([]recorderLayer, len(t.names))}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(l layer, req uint64, start, end int64) {
	b := &r.layers[l]
	b.mu.Lock()
	b.spans = append(b.spans, span{l, req, start, end})
	b.mu.Unlock()
}

func (r *recorder) all() []span {
	var out []span
	for i := range r.layers {
		b := &r.layers[i]
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	return out
}

// selfTimes attributes every root span's duration to the layers under
// it. A layer's self time is its span minus the part of that interval
// its child spans cover. Spans are grouped by request; a request with no
// root span (set-up and warm-up traffic) is ignored. The result holds,
// per layer, one self-time entry per rooted request (summed if a layer
// ran twice for it, as on a retry), plus the root durations in the same
// request order.
func selfTimes(spans []span, t tree) (self [][]int64, roots []int64) {
	self = make([][]int64, len(t.names))
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Req != sorted[j].Req {
			return sorted[i].Req < sorted[j].Req
		}
		return sorted[i].Start < sorted[j].Start
	})
	for lo := 0; lo < len(sorted); {
		hi := lo
		for hi < len(sorted) && sorted[hi].Req == sorted[lo].Req {
			hi++
		}
		group := sorted[lo:hi]
		lo = hi
		var rootDur int64
		rooted := false
		for _, s := range group {
			if t.parents[s.Layer] == layerNone {
				rootDur += s.End - s.Start
				rooted = true
			}
		}
		if !rooted {
			continue
		}
		perLayer := make([]int64, len(t.names))
		for _, s := range group {
			perLayer[s.Layer] += s.End - s.Start - covered(s, group, t)
		}
		roots = append(roots, rootDur)
		for l := range perLayer {
			self[l] = append(self[l], perLayer[l])
		}
	}
	return self, roots
}

// covered returns how much of parent's interval the union of its child
// spans covers. group is sorted by start time.
func covered(parent span, group []span, t tree) int64 {
	var total int64
	edge := parent.Start
	for _, c := range group {
		if t.parents[c.Layer] != parent.Layer {
			continue
		}
		s, e := c.Start, c.End
		if s < edge {
			s = edge
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// reconcile checks that the layers' self times add back up to the root
// spans: spans nest, so client = sum of self times. A child that leaks
// out of its parent or overlaps a sibling breaks the identity; more than
// tolerance (a fraction) of disagreement is an error.
func reconcile(self [][]int64, roots []int64, tolerance float64) error {
	var rootSum, selfSum int64
	for _, d := range roots {
		rootSum += d
	}
	for l := range self {
		for _, d := range self[l] {
			selfSum += d
		}
	}
	if rootSum == 0 {
		return fmt.Errorf("span reconciliation: no root spans recorded")
	}
	if diff := math.Abs(float64(selfSum-rootSum)) / float64(rootSum); diff > tolerance {
		return fmt.Errorf("span reconciliation: layer self times sum to %d ns against %d ns of client spans (%.2f%% apart, limit %.0f%%)",
			selfSum, rootSum, diff*100, tolerance*100)
	}
	return nil
}

// meanUS is the mean of nanosecond samples, in microseconds.
func meanUS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum int64
	for _, d := range ns {
		sum += d
	}
	return float64(sum) / float64(len(ns)) / 1e3
}

// chromeTraceRequests bounds the trace file: the first requests of the
// timed phase are enough to read the span shape, and a whole run would
// be hundreds of megabytes of JSON.
const chromeTraceRequests = 2000

// writeChromeTrace renders the spans of the lowest-numbered requests as
// Chrome trace-event JSON through internal/trace, one lane per layer
// and caller slot so concurrent requests do not overlap on a lane.
func writeChromeTrace(w io.Writer, spans []span, t tree, lanes int) error {
	if lanes < 1 {
		lanes = 1
	}
	rootReqs := map[uint64]bool{}
	var ids []uint64
	for _, s := range spans {
		if t.parents[s.Layer] == layerNone && !rootReqs[s.Req] {
			rootReqs[s.Req] = true
			ids = append(ids, s.Req)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > chromeTraceRequests {
		for _, id := range ids[chromeTraceRequests:] {
			delete(rootReqs, id)
		}
	}
	var out []*trace.Span
	for _, s := range spans {
		if !rootReqs[s.Req] {
			continue
		}
		id := strconv.FormatUint(s.Req, 10)
		out = append(out, &trace.Span{
			TraceID: id,
			SpanID:  id + "/" + t.names[s.Layer],
			Service: fmt.Sprintf("%s/%d", t.names[s.Layer], s.Req%uint64(lanes)),
			Name:    "req " + id,
			Kind:    trace.KindInternal,
			Start:   s.Start,
			End:     s.End,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return trace.SpansToTracer(out).WriteChromeTrace(w)
}
