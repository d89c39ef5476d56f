// Chrome trace-event JSON export: renders a Tracer as the JSON object
// format that chrome://tracing and Perfetto open directly. Services map
// to threads of one synthetic process; spans become complete ("X")
// slices with microsecond timestamps, instants (dispatch, failures,
// scaling) thread-scoped instant events.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the traceEvents array. Fields follow the
// Trace Event Format spec (ph "X" = complete slice, "i" = instant,
// "M" = metadata); ts/dur are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromePid is the single synthetic process all services live under.
const chromePid = 1

// WriteChromeTrace writes the trace in Chrome trace-event JSON, one
// event per span in emission order. A span becomes a slice named after
// the span (its kind when unnamed) and categorized by kind; an instant
// becomes an event named after its kind. Attempt numbers, errors and
// instants' names ride along in args, so retry and hedge attribution
// survives into the viewer.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	ents := t.Entities()
	tid := make(map[string]int, len(ents))
	out := make([]chromeEvent, 0, t.n+len(ents))
	for i, e := range ents {
		tid[e] = i + 1
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", Pid: chromePid, Tid: i + 1,
			Args: map[string]any{"name": e},
		})
	}
	for i := range t.n {
		sp := t.at(i)
		ev := chromeEvent{
			Ts: float64(sp.Start) / 1e3, Pid: chromePid, Tid: tid[sp.Service],
			Args: map[string]any{"attempt": sp.Attempt},
		}
		if sp.Err != "" {
			ev.Args["err"] = sp.Err
		}
		if sp.Start == sp.End {
			ev.Name, ev.Phase, ev.Scope = string(sp.Kind), "i", "t"
			if sp.Name != "" {
				ev.Args["detail"] = sp.Name
			}
		} else {
			dur := float64(sp.End-sp.Start) / 1e3
			ev.Name, ev.Phase, ev.Dur, ev.Cat = sp.Name, "X", &dur, string(sp.Kind)
			if ev.Name == "" {
				ev.Name = string(sp.Kind)
			}
		}
		out = append(out, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ms"}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("trace: chrome export: %w", err)
	}
	return nil
}
