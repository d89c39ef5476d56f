package scenario

import (
	"fmt"
	"math"
	"path"
	"sort"
	"strings"

	"continuum/internal/fault"
	"continuum/internal/workload"
)

// EventJSON is one entry in a scenario's timed event script. At is in
// scenario seconds from run start (the simulator replays it in virtual
// time, the live runner in wall-clock time × LiveOptions.TimeScale).
// Kind selects the effect:
//
//	fail          target node(s) fail-stop; "for" seconds later they
//	              auto-recover (omit "for" to leave them down)
//	recover       target node(s) repair
//	cascade       correlated failure: "count" of the matching nodes
//	              (seed-drawn) fail one after another "spacing" seconds
//	              apart, each down for "for" seconds
//	chaos         per-request fault injection on target node(s); "spec"
//	              uses the shared fault grammar (drop/err/delay/delayp/
//	              up/down/seed — see fault.ParseChaos); "for" auto-stops
//	chaos-off     stop chaos on target node(s)
//	degrade-link  target "a->b": both directions of that link get
//	              latency × factor and capacity ÷ factor
//	restore-link  target "a->b": back to the scenario's figures
//	workload      the global stream arrival rate multiplier becomes
//	              "factor" (flash crowds, diurnal ramps)
//	cordon        target node(s) stop accepting NEW work while in-flight
//	              work finishes (the graceful half of a failure); "for"
//	              seconds later they uncordon (omit "for" to leave the
//	              hold in place)
//	uncordon      target node(s) accept new work again
//	drain         cordon plus the node's own request generator goes
//	              quiet — the maintenance shape: stop taking work, stop
//	              making work, let the pipeline empty; "for" undoes both
//	leave         target node(s) leave the federation gracefully: stop
//	              taking new work, stop generating, and (on a
//	              router-fronted live fleet) announce a drain-deregister
//	              to the router; "for" seconds later they rejoin (omit
//	              "for" to leave them gone)
//	join          target node(s) (re)join: accept and generate work
//	              again, re-registering with the router when one fronts
//	              the live fleet
//
// Node targets are an exact node name, a glob ("gw*"), or a tier
// selector ("class:gateway").
type EventJSON struct {
	At      float64 `json:"at"`
	Kind    string  `json:"kind"`
	Target  string  `json:"target,omitempty"`
	For     float64 `json:"for,omitempty"`
	Count   int     `json:"count,omitempty"`
	Spacing float64 `json:"spacing,omitempty"`
	Spec    string  `json:"spec,omitempty"`
	Factor  float64 `json:"factor,omitempty"`
}

// opKind enumerates the primitive timeline operations events compile to.
type opKind uint8

const (
	opFail opKind = iota
	opRepair
	opChaosOn
	opChaosOff
	opLink // factor 1 restores; anything else degrades
	opWorkload
	opCordon // drain=true also silences the node's generator
	opUncordon
	opLeave // graceful federation departure (sim: fail + quiet generator)
	opJoin  // rejoin (sim: repair; live+router: re-register)
)

// op is one compiled primitive. Events expand — cascades into staggered
// fail/repair pairs, target patterns into concrete node indices, chaos
// specs into parsed structs — so both backends replay exactly the same
// timeline from the same compiled script.
type op struct {
	at     float64
	kind   opKind
	node   int             // index into Scenario.Nodes: every node op
	link   int             // opLink: index into Scenario.Links
	factor float64         // opLink multiplier or opWorkload rate factor
	chaos  fault.ChaosSpec // opChaosOn
	drain  bool            // opCordon: also pause the node's generator
}

// compile expands the event script into a time-sorted primitive
// timeline, reporting the first invalid event positionally. rng feeds
// only random expansion (cascade victim order, chaos seeds), never
// validity.
func (s *Scenario) compile(rng *workload.RNG) ([]op, error) {
	if len(s.Events) == 0 {
		return nil, nil
	}
	evFail := func(i int, format string, args ...any) error {
		return fmt.Errorf("scenario %q: events[%d]: %s", s.Name, i, fmt.Sprintf(format, args...))
	}
	// Every op time must be finite: the kernel refuses to schedule at
	// +Inf, and a run must never be where a bad file is found.
	pastEnd := func(i int, field string, at float64) error {
		return fmt.Errorf("scenario %q: events[%d].%s: an op at %v is past the largest time", s.Name, i, field, at)
	}
	var ops []op
	for i, ev := range s.Events {
		if ev.At < 0 {
			return nil, evFail(i, "at %v must be >= 0", ev.At)
		}
		if ev.For < 0 {
			return nil, evFail(i, "for %v must be >= 0", ev.For)
		}
		if !finite(ev.At) {
			return nil, pastEnd(i, "at", ev.At)
		}
		if end := ev.At + ev.For; !finite(end) {
			return nil, pastEnd(i, "for", end)
		}
		switch ev.Kind {
		case "fail", "recover", "cascade", "chaos", "chaos-off", "cordon", "uncordon", "drain", "leave", "join":
			nodes, err := s.matchNodes(ev.Target)
			if err != nil {
				return nil, evFail(i, "%v", err)
			}
			switch ev.Kind {
			case "fail":
				for _, n := range nodes {
					ops = append(ops, op{at: ev.At, kind: opFail, node: n})
					if ev.For > 0 {
						ops = append(ops, op{at: ev.At + ev.For, kind: opRepair, node: n})
					}
				}
			case "recover":
				for _, n := range nodes {
					ops = append(ops, op{at: ev.At, kind: opRepair, node: n})
				}
			case "cascade":
				count := ev.Count
				if count <= 0 || count > len(nodes) {
					count = len(nodes)
				}
				if ev.Spacing < 0 {
					return nil, evFail(i, "spacing %v must be >= 0", ev.Spacing)
				}
				last := ev.At + float64(count-1)*ev.Spacing
				if !finite(last) {
					return nil, pastEnd(i, "spacing", last)
				}
				if !finite(last + ev.For) {
					return nil, pastEnd(i, "for", last+ev.For)
				}
				perm := rng.Perm(len(nodes))
				for k := 0; k < count; k++ {
					n := nodes[perm[k]]
					at := ev.At + float64(k)*ev.Spacing
					ops = append(ops, op{at: at, kind: opFail, node: n})
					if ev.For > 0 {
						ops = append(ops, op{at: at + ev.For, kind: opRepair, node: n})
					}
				}
			case "chaos":
				if ev.Spec == "" {
					return nil, evFail(i, "chaos needs a spec in the shared fault grammar, e.g. %q", "err=0.1,delay=20ms,delayp=0.3")
				}
				spec, err := fault.ParseChaos(ev.Spec)
				if err != nil {
					return nil, evFail(i, "%v", err)
				}
				if hasSeedKey(ev.Spec) {
					return nil, fmt.Errorf("scenario %q: events[%d].spec: seed= does not apply here: a scenario's chaos draws from the scenario seed", s.Name, i)
				}
				// Neither backend reads this seed: both draw a chaos op's
				// fates from the run's event stream (see
				// Plan.chaosStreams). The draw stays so that the cascades
				// compiled after it keep their victims.
				spec.Seed = int64(rng.Uint64()>>1) | 1
				if spec.MeanUp > 0 && s.DAG != nil && ev.For <= 0 && !hasLaterChaosOff(s.Events, i) {
					return nil, evFail(i, "cycling chaos (up/down) in a DAG scenario needs \"for\" or a later chaos-off (no horizon bounds it)")
				}
				for _, n := range nodes {
					ops = append(ops, op{at: ev.At, kind: opChaosOn, node: n, chaos: spec})
					if ev.For > 0 {
						ops = append(ops, op{at: ev.At + ev.For, kind: opChaosOff, node: n})
					}
				}
			case "chaos-off":
				for _, n := range nodes {
					ops = append(ops, op{at: ev.At, kind: opChaosOff, node: n})
				}
			case "cordon", "drain":
				if len(nodes) == len(s.Nodes) {
					return nil, evFail(i, "%s %q would hold every node: at least one must stay schedulable", ev.Kind, ev.Target)
				}
				for _, n := range nodes {
					ops = append(ops, op{at: ev.At, kind: opCordon, node: n, drain: ev.Kind == "drain"})
					if ev.For > 0 {
						ops = append(ops, op{at: ev.At + ev.For, kind: opUncordon, node: n})
					}
				}
			case "uncordon":
				for _, n := range nodes {
					ops = append(ops, op{at: ev.At, kind: opUncordon, node: n})
				}
			case "leave":
				if len(nodes) == len(s.Nodes) {
					return nil, evFail(i, "leave %q would empty the fleet: at least one node must stay", ev.Target)
				}
				for _, n := range nodes {
					ops = append(ops, op{at: ev.At, kind: opLeave, node: n})
					if ev.For > 0 {
						ops = append(ops, op{at: ev.At + ev.For, kind: opJoin, node: n})
					}
				}
			case "join":
				for _, n := range nodes {
					ops = append(ops, op{at: ev.At, kind: opJoin, node: n})
				}
			}
		case "degrade-link", "restore-link":
			link, err := s.matchLink(ev.Target)
			if err != nil {
				return nil, evFail(i, "%v", err)
			}
			factor := 1.0
			if ev.Kind == "degrade-link" {
				if ev.Factor <= 0 {
					return nil, evFail(i, "degrade-link needs factor > 0 (latency multiplier / capacity divisor)")
				}
				factor = ev.Factor
			}
			ops = append(ops, op{at: ev.At, kind: opLink, link: link, factor: factor})
		case "workload":
			if s.Stream == nil {
				return nil, evFail(i, "workload event needs a stream workload")
			}
			if ev.Factor <= 0 {
				return nil, evFail(i, "workload event needs factor > 0")
			}
			ops = append(ops, op{at: ev.At, kind: opWorkload, factor: ev.Factor})
		default:
			return nil, evFail(i, "unknown kind %q (want fail|recover|cascade|chaos|chaos-off|cordon|uncordon|drain|leave|join|degrade-link|restore-link|workload)", ev.Kind)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops, nil
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// hasLaterChaosOff reports whether any event after index i is a
// chaos-off (conservatively ignoring targets: its purpose is only to
// confirm the author thought about stopping an unbounded cycle).
func hasLaterChaosOff(events []EventJSON, i int) bool {
	for _, ev := range events[i+1:] {
		if ev.Kind == "chaos-off" {
			return true
		}
	}
	return false
}

// matchNodes resolves a node target — exact name, glob, or
// "class:<tier>" — against the scenario's nodes, returning their indices
// in declaration order (which keeps expansion deterministic).
func (s *Scenario) matchNodes(pattern string) ([]int, error) {
	if pattern == "" {
		return nil, fmt.Errorf("target required (node name, glob, or class:<tier>)")
	}
	var out []int
	if cls, ok := strings.CutPrefix(pattern, "class:"); ok {
		c, err := parseClass(cls)
		if err != nil {
			return nil, err
		}
		for i, n := range s.Nodes {
			if n.Class == c.String() {
				out = append(out, i)
			}
		}
	} else {
		for i, n := range s.Nodes {
			ok, err := path.Match(pattern, n.Name)
			if err != nil {
				return nil, fmt.Errorf("bad target pattern %q: %v", pattern, err)
			}
			if ok {
				out = append(out, i)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("target %q matches no node", pattern)
	}
	return out, nil
}

// matchLink resolves an "a->b" link target against the scenario's links
// (either direction), returning the index of the first link declared
// between the two.
func (s *Scenario) matchLink(target string) (int, error) {
	a, b, ok := strings.Cut(target, "->")
	if !ok {
		return 0, fmt.Errorf("link target %q is not \"a->b\"", target)
	}
	a, b = strings.TrimSpace(a), strings.TrimSpace(b)
	for i, l := range s.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("link %q is not defined", target)
}

// phases extracts the workload rate schedule from a compiled timeline
// (ops are time-sorted, so the phases come out sorted too).
func phases(ops []op) []workload.Phase {
	var ph []workload.Phase
	for _, o := range ops {
		if o.kind == opWorkload {
			ph = append(ph, workload.Phase{Start: o.at, Factor: o.factor})
		}
	}
	return ph
}

// hasSeedKey reports whether a chaos spec that fault.ParseChaos accepted
// sets seed=.
func hasSeedKey(spec string) bool {
	for _, kv := range strings.Split(spec, ",") {
		if k, _, _ := strings.Cut(strings.TrimSpace(kv), "="); k == "seed" {
			return true
		}
	}
	return false
}
