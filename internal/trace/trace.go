// Package trace records simulation events for post-hoc analysis: what ran
// where and when, what moved, what failed. A Tracer costs nothing when
// absent (core's runners take it optionally) and renders timelines —
// per-node utilization and an ASCII Gantt chart — plus JSONL export for
// external tooling.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Kind classifies an event.
type Kind string

// Event kinds recorded by the built-in runners. Custom kinds are fine;
// analysis functions only interpret the Start/End pairs.
const (
	TaskStart     Kind = "task-start"
	TaskEnd       Kind = "task-end"
	TransferStart Kind = "xfer-start"
	TransferEnd   Kind = "xfer-end"
	StageStart    Kind = "stage-start"
	StageEnd      Kind = "stage-end"
	Dispatch      Kind = "dispatch"
	ScaleUp       Kind = "scale-up"
	ScaleDown     Kind = "scale-down"
	Failure       Kind = "failure"
	Repair        Kind = "repair"
	// Preempt marks a speculative replica whose result was discarded
	// because a sibling replica delivered first; Attempt identifies which
	// replica lost.
	Preempt Kind = "preempt"
	// Cordon/Uncordon mark scripted scheduling holds: a cordoned node
	// finishes in-flight work but receives nothing new (unlike Failure,
	// which loses in-flight attempts). Detail says "cordon" or "drain"
	// (drain also silences the node's own request generator).
	Cordon   Kind = "cordon"
	Uncordon Kind = "uncordon"
)

// Event is one timestamped record. Matched Start/End kinds form spans;
// Attempt carries retry attribution (0 = first attempt) so a retried
// task's spans are distinguishable in exported timelines.
type Event struct {
	Time    float64 `json:"t"`
	Kind    Kind    `json:"kind"`
	Entity  string  `json:"entity"` // node/link/pool name
	Detail  string  `json:"detail,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
}

// Tracer accumulates events up to a bound (0 = unbounded). Overflow drops
// the newest events and sets Dropped, never the oldest (the run's start
// usually matters most when debugging).
type Tracer struct {
	limit   int
	events  []Event
	Dropped int64
}

// New returns a tracer retaining at most limit events (0 = unlimited).
func New(limit int) *Tracer {
	if limit < 0 {
		panic("trace: negative limit")
	}
	return &Tracer{limit: limit}
}

// Record appends an event on attempt 0.
func (t *Tracer) Record(time float64, kind Kind, entity, detail string) {
	t.RecordAttempt(time, kind, entity, detail, 0)
}

// RecordAttempt appends an event carrying retry attribution: attempt 0 is
// the first try, each re-dispatch increments it. Nil tracers discard
// everything at zero cost.
func (t *Tracer) RecordAttempt(time float64, kind Kind, entity, detail string, attempt int) {
	if t == nil {
		return
	}
	if t.limit > 0 && len(t.events) >= t.limit {
		t.Dropped++
		return
	}
	t.events = append(t.events, Event{Time: time, Kind: kind, Entity: entity, Detail: detail, Attempt: attempt})
}

// Filter returns events of the given kind, preserving order.
func (t *Tracer) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range t.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Entities returns the sorted set of entity names seen.
func (t *Tracer) Entities() []string {
	seen := map[string]bool{}
	for _, e := range t.events {
		seen[e.Entity] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Span returns the [min, max] event-time range (0,0 when empty).
func (t *Tracer) Span() (float64, float64) {
	if len(t.events) == 0 {
		return 0, 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range t.events {
		if e.Time < lo {
			lo = e.Time
		}
		if e.Time > hi {
			hi = e.Time
		}
	}
	return lo, hi
}

// busyIntervals pairs TaskStart/TaskEnd events per entity. Unmatched
// starts extend to the trace end (the run was cut off).
func (t *Tracer) busyIntervals(entity string) [][2]float64 {
	_, end := t.Span()
	var out [][2]float64
	depth := 0
	start := 0.0
	for _, e := range t.events {
		if e.Entity != entity {
			continue
		}
		switch e.Kind {
		case TaskStart:
			if depth == 0 {
				start = e.Time
			}
			depth++
		case TaskEnd:
			if depth > 0 {
				depth--
				if depth == 0 {
					out = append(out, [2]float64{start, e.Time})
				}
			}
		}
	}
	if depth > 0 {
		out = append(out, [2]float64{start, end})
	}
	return out
}

// Gantt renders an ASCII busy-timeline, one lane per entity, width
// columns spanning the trace. '#' marks any-busy buckets.
func (t *Tracer) Gantt(width int) string {
	if width < 1 {
		panic("trace: Gantt width < 1")
	}
	lo, hi := t.Span()
	if hi <= lo {
		return ""
	}
	ents := t.Entities()
	nameW := 0
	for _, e := range ents {
		if len(e) > nameW {
			nameW = len(e)
		}
	}
	var b strings.Builder
	bucket := (hi - lo) / float64(width)
	for _, ent := range ents {
		ivs := t.busyIntervals(ent)
		if len(ivs) == 0 {
			continue
		}
		lane := make([]byte, width)
		for i := range lane {
			lane[i] = '.'
		}
		for _, iv := range ivs {
			s := int((iv[0] - lo) / bucket)
			e := int((iv[1] - lo) / bucket)
			if e >= width {
				e = width - 1
			}
			for i := s; i <= e; i++ {
				lane[i] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, ent, lane)
	}
	// Time axis: lo left-aligned under the first lane column, hi
	// right-aligned under the last. When the width is too narrow to fit
	// both labels the pad clamps to a single space instead of going
	// negative (which used to left-shift hi and misalign the axis).
	loS, hiS := fmt.Sprintf("%.2fs", lo), fmt.Sprintf("%.2fs", hi)
	pad := width - len(loS) - len(hiS)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%-*s  %s%s%s\n", nameW, "", loS, strings.Repeat(" ", pad), hiS)
	return b.String()
}

// WriteJSONL streams events as JSON lines.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return bw.Flush()
}
