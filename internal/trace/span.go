// Spans: the one trace record of both backends. A Span is one timed
// operation attributed to a trace (one end-to-end request), a parent span
// (the caller's operation), a service (which process, endpoint or
// simulated node did the work), and an attempt (which retry or hedge
// arm). The live path records spans wall-clock and assembles them post
// hoc — possibly across processes, by merging each daemon's span store —
// into one tree per trace; the simulator records the same type in
// virtual time (see Tracer).
//
// Context propagation is deliberately tiny: a trace ID plus the current
// span ID ride a context.Context inside one process and two optional
// wire fields between processes (see wire.Request). A peer that predates
// the fields simply drops them; the trace degrades to the spans of the
// processes that do record, never to corruption.
package trace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// SpanKind classifies which layer emitted a span.
type SpanKind string

// Span kinds recorded by the simulator. Task, stage and transfer spans
// have a duration; the rest are instants (Start == End).
const (
	// KindTask is one attempt executing on a node, from handing the task
	// to the node (a core may still have to free up) to its end. An
	// attempt lost or over its deadline ends when the engine detects it,
	// with Err saying why.
	KindTask SpanKind = "task"
	// KindStage is an attempt's input staging onto its node.
	KindStage SpanKind = "stage"
	// KindTransfer is a DAG edge's bulk transfer between two nodes; the
	// service is "src->dst" and the name the byte count.
	KindTransfer SpanKind = "xfer"
	// KindDispatch marks an attempt entering the engine's pipeline.
	KindDispatch SpanKind = "dispatch"
	// KindScaleUp marks an autoscaled node taking work again; the name
	// says "warm" or "cold".
	KindScaleUp SpanKind = "scale-up"
	// KindScaleDown marks an autoscaled node going idle.
	KindScaleDown SpanKind = "scale-down"
	// KindFailure marks a node failing or an attempt being lost; for an
	// attempt, Err says why.
	KindFailure SpanKind = "failure"
	// KindRepair marks a failed node coming back up.
	KindRepair SpanKind = "repair"
	// KindPreempt marks a speculative replica whose result was discarded
	// because a sibling replica delivered first; Attempt identifies which
	// replica lost.
	KindPreempt SpanKind = "preempt"
	// KindCordon and KindUncordon mark scripted scheduling holds: a
	// cordoned node finishes in-flight work but receives nothing new
	// (unlike a failure, which loses in-flight attempts). The name says
	// "cordon" or "drain" (drain also silences the node's own request
	// generator).
	KindCordon   SpanKind = "cordon"
	KindUncordon SpanKind = "uncordon"
)

// Span kinds recorded by the live path.
const (
	// KindClient is a caller-side span: the reliable client's root
	// invocation span and the raw wire client's per-call send span.
	KindClient SpanKind = "client"
	// KindAttempt is one logical try of a reliable call: a retry attempt
	// or one arm of a hedged race.
	KindAttempt SpanKind = "attempt"
	// KindServer covers a request inside a wire server, from decoded
	// frame to queued response.
	KindServer SpanKind = "server"
	// KindQueue is time spent waiting for an execution slot.
	KindQueue SpanKind = "queue"
	// KindExec is handler execution (including cold-start provisioning).
	KindExec SpanKind = "exec"
	// KindInternal is anything else (breaker skips, store housekeeping).
	KindInternal SpanKind = "internal"
)

// Span is one completed timed operation. On the live path Start/End are
// wall-clock unix nanoseconds so spans from different processes on one
// machine merge on a common axis; in the simulator they are virtual
// nanoseconds from a virtual epoch of 0, and the trace and span IDs are
// empty. Attrs carry low-cardinality string facts (endpoint address,
// cold/warm, cancellation); Err is set when the operation failed.
type Span struct {
	TraceID string            `json:"trace,omitempty"`
	SpanID  string            `json:"span,omitempty"`
	Parent  string            `json:"parent,omitempty"`
	Service string            `json:"svc"`
	Name    string            `json:"name"`
	Kind    SpanKind          `json:"kind"`
	Attempt int               `json:"attempt,omitempty"`
	Start   int64             `json:"start"` // nanoseconds
	End     int64             `json:"end"`   // nanoseconds
	Err     string            `json:"err,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span's elapsed time.
func (s *Span) Duration() time.Duration {
	return time.Duration(s.End - s.Start)
}

// idRNG generates span and trace IDs. Uniqueness (not secrecy) is the
// requirement; ChaCha8 seeded per process keeps IDs distinct across
// daemons while costing a few nanoseconds per draw under a mutex — off
// the hot path entirely when no span store is installed.
var idRNG = struct {
	sync.Mutex
	r *rand.ChaCha8
}{r: rand.NewChaCha8(seed())}

func seed() [32]byte {
	var s [32]byte
	now := time.Now().UnixNano()
	for i := 0; i < 8; i++ {
		s[i] = byte(now >> (8 * i))
	}
	// Mix in Go's runtime-seeded global RNG so two daemons started the
	// same nanosecond still diverge.
	a, b := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		s[8+i] = byte(a >> (8 * i))
		s[16+i] = byte(b >> (8 * i))
	}
	return s
}

func randHex(n int) string {
	buf := make([]byte, n)
	idRNG.Lock()
	for i := 0; i < n; i += 8 {
		v := idRNG.r.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			buf[i+j] = byte(v >> (8 * j))
		}
	}
	idRNG.Unlock()
	return hex.EncodeToString(buf)
}

// NewTraceID returns a fresh 16-hex-character trace identifier.
func NewTraceID() string { return randHex(8) }

// NewSpanID returns a fresh 8-hex-character span identifier.
func NewSpanID() string { return randHex(4) }

// SpanContext is the propagated slice of a trace: which trace the caller
// belongs to and which of its spans is the current parent.
type SpanContext struct {
	TraceID string
	SpanID  string
}

type ctxKey struct{}

// NewContext returns ctx carrying sc, to be picked up by ContextSpan in
// a callee (the wire client stamps it onto outgoing requests).
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// ContextSpan extracts the propagated trace context, if any.
func ContextSpan(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok && sc.TraceID != ""
}
