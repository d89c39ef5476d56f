// Package federation is the funcX-style control plane that stitches
// many continuumd daemons into one serving fabric. Daemons register
// with a continuum-router over the ordinary wire protocol and keep
// their registration alive with periodic heartbeats carrying a load
// snapshot (queue depth, in-flight, slot limit, cordon state); the
// router routes client invocations across the live membership with a
// pluggable policy — rendezvous hashing on function+payload affinity,
// or least-loaded — on top of wire.ReliableClient's existing
// retry/breaker/hedge machinery, so endpoint churn (join, leave, drain,
// crash) degrades to ordinary failover instead of lost requests.
//
// The package has three working parts: Registry (the membership state
// machine: generation-checked registration, heartbeat freshness,
// suspect/expiry sweeping), Router (the data path: a wire.OpsHandler
// serving the control ops plus a faas.ContextInvoker routing invoke),
// and Agent (the daemon side: register, heartbeat, re-register when
// superseded, drain on shutdown).
package federation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"continuum/internal/wire"
)

// Membership defaults.
const (
	// DefaultHeartbeatInterval is the heartbeat cadence the router asks
	// of its members when Config.HeartbeatInterval is zero.
	DefaultHeartbeatInterval = 2 * time.Second
	// DefaultSuspectAfter is how many missed heartbeat intervals turn a
	// member suspect (routed around, still listed).
	DefaultSuspectAfter = 2
	// DefaultExpireAfter is how many missed heartbeat intervals expire a
	// member entirely (removed from membership; it must re-register).
	DefaultExpireAfter = 4
)

// Member liveness states as reported by the endpoints op.
const (
	// StateAlive marks a member with a fresh heartbeat.
	StateAlive = "alive"
	// StateSuspect marks a member that has missed heartbeats but not yet
	// expired: no new work is routed to it, in-flight work may finish.
	StateSuspect = "suspect"
	// StateDraining marks a member that asked to leave gracefully: no
	// new work, stays listed until it deregisters for good or expires.
	StateDraining = "draining"
)

// ErrUnknownMember rejects a heartbeat or deregister from a member the
// registry does not know — never registered, expired, or superseded by
// a newer registration of the same name. The sender's cure is to
// register again; Agent does so automatically.
var ErrUnknownMember = errors.New("federation: unknown member (re-register)")

// Config parameterizes a Registry.
type Config struct {
	// HeartbeatInterval is the cadence members must heartbeat at
	// (0 = DefaultHeartbeatInterval). The router returns it from the
	// register op, so members need no out-of-band configuration.
	HeartbeatInterval time.Duration
	// SuspectAfter is how many missed intervals turn a member suspect
	// (0 = DefaultSuspectAfter).
	SuspectAfter int
	// ExpireAfter is how many missed intervals expire a member
	// (0 = DefaultExpireAfter). Must be >= SuspectAfter to be useful.
	ExpireAfter int
	// Now supplies the clock (nil = time.Now). Tests inject a fake to
	// drive the expiry state machine deterministically.
	Now func() time.Time
	// OnChange, when set, is called — outside the registry lock — after
	// any membership mutation: register, deregister, drain, expiry, or a
	// heartbeat that flipped a member's routability (cordon change,
	// suspect recovery). The router uses it to resync its client's
	// endpoint set.
	OnChange func()
}

// member is one registration's server-side state.
type member struct {
	info wire.MemberInfo // last advertised body, Generation = assigned
	last time.Time       // last heartbeat (or registration) arrival
}

// Registry is the membership half of a continuum-router: the
// generation-checked register/heartbeat/deregister state machine and
// the suspect/expiry sweep. Safe for concurrent use. Expiry is lazy —
// every read or write sweeps first — plus the router runs a periodic
// Sweep so an idle federation still notices silent deaths.
type Registry struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*member
	nextGen int64

	// routable is the request path's view of members: built under mu,
	// read without it. Every mutation of members clears it (under mu).
	routable atomic.Pointer[routableView]
}

// routableView is one immutable answer to Routable, good until the
// clock passes validUntil: the earliest instant at which some member
// turns suspect or expires with no call into the registry to say so.
type routableView struct {
	members    []wire.MemberStatus
	validUntil time.Time
}

func (v *routableView) validAt(now time.Time) bool {
	return v != nil && !now.After(v.validUntil)
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.ExpireAfter <= 0 {
		cfg.ExpireAfter = DefaultExpireAfter
	}
	return &Registry{cfg: cfg, members: make(map[string]*member)}
}

// HeartbeatInterval returns the cadence members must heartbeat at.
func (r *Registry) HeartbeatInterval() time.Duration { return r.cfg.HeartbeatInterval }

func (r *Registry) now() time.Time {
	if r.cfg.Now != nil {
		return r.cfg.Now()
	}
	return time.Now()
}

// expireLocked removes members whose last heartbeat is older than the
// expiry horizon. Returns whether membership changed.
func (r *Registry) expireLocked(now time.Time) bool {
	horizon := time.Duration(r.cfg.ExpireAfter) * r.cfg.HeartbeatInterval
	changed := false
	for name, m := range r.members {
		if now.Sub(m.last) > horizon {
			delete(r.members, name)
			changed = true
		}
	}
	if changed {
		r.routable.Store(nil)
	}
	return changed
}

// notify runs the change hook, if any. Callers must NOT hold r.mu.
func (r *Registry) notify(changed bool) {
	if changed && r.cfg.OnChange != nil {
		r.cfg.OnChange()
	}
}

// Register admits (or re-admits) a member and returns the generation
// assigned to this incarnation. Registering a name that is already
// present supersedes the previous incarnation: its generation is
// retired, so a lingering heartbeat from a restarted daemon's earlier
// life is rejected with ErrUnknownMember instead of corrupting the new
// state. Register never fails on a duplicate — the newest registration
// always wins, which is what a crashed-and-restarted daemon needs.
func (r *Registry) Register(info wire.MemberInfo) (int64, error) {
	if info.Name == "" {
		return 0, errors.New("federation: register: empty member name")
	}
	if info.Addr == "" {
		return 0, fmt.Errorf("federation: register %q: empty advertised address", info.Name)
	}
	now := r.now()
	r.mu.Lock()
	r.expireLocked(now)
	r.nextGen++
	info.Generation = r.nextGen
	info.Draining = false
	r.members[info.Name] = &member{info: info, last: now}
	r.routable.Store(nil)
	r.mu.Unlock()
	r.notify(true)
	return info.Generation, nil
}

// Heartbeat refreshes a member's liveness and load snapshot. The
// heartbeat must carry the generation Register assigned; a heartbeat
// for an unknown name, an expired member, or a superseded generation
// fails with ErrUnknownMember, telling the sender to re-register.
func (r *Registry) Heartbeat(info wire.MemberInfo) error {
	now := r.now()
	r.mu.Lock()
	expired := r.expireLocked(now)
	m, ok := r.members[info.Name]
	if !ok || m.info.Generation != info.Generation {
		r.mu.Unlock()
		r.notify(expired)
		return ErrUnknownMember
	}
	// Whether the member can take new work may flip on any heartbeat:
	// cordon toggled, or a suspect member coming back fresh. Evaluate
	// before the refresh so the transition is visible.
	wasRoutable := r.routableLocked(m, now)
	m.info.QueueDepth = info.QueueDepth
	m.info.InFlight = info.InFlight
	m.info.SlotLimit = info.SlotLimit
	m.info.Cordoned = info.Cordoned
	if info.Capacity != 0 {
		m.info.Capacity = info.Capacity
	}
	if info.Functions != nil {
		m.info.Functions = info.Functions
	}
	m.last = now
	r.routable.Store(nil) // load figures and validUntil both moved
	isRoutable := r.routableLocked(m, now)
	r.mu.Unlock()
	r.notify(expired || wasRoutable != isRoutable)
	return nil
}

// Deregister removes a member. drain true marks it draining instead —
// it stops receiving new routes but stays listed (and its in-flight
// work undisturbed) until it deregisters for good or expires. The
// generation must match; a stale incarnation's deregister is ignored
// with ErrUnknownMember so a restarted daemon's shutdown path cannot
// evict its successor.
func (r *Registry) Deregister(name string, generation int64, drain bool) error {
	now := r.now()
	r.mu.Lock()
	expired := r.expireLocked(now)
	m, ok := r.members[name]
	if !ok || m.info.Generation != generation {
		r.mu.Unlock()
		r.notify(expired)
		return ErrUnknownMember
	}
	if drain {
		m.info.Draining = true
		m.last = now // a drain announcement proves liveness
	} else {
		delete(r.members, name)
	}
	r.routable.Store(nil)
	r.mu.Unlock()
	r.notify(true)
	return nil
}

// Sweep expires silent members now. The router calls it on a timer so
// an idle federation (no heartbeats arriving to trigger the lazy sweep)
// still notices deaths within the expiry horizon.
func (r *Registry) Sweep() {
	now := r.now()
	r.mu.Lock()
	changed := r.expireLocked(now)
	r.mu.Unlock()
	r.notify(changed)
}

// routableLocked reports whether m should receive new work as of now:
// heartbeat fresh (not suspect), not cordoned, not draining.
func (r *Registry) routableLocked(m *member, now time.Time) bool {
	suspectAt := time.Duration(r.cfg.SuspectAfter) * r.cfg.HeartbeatInterval
	return now.Sub(m.last) <= suspectAt && !m.info.Cordoned && !m.info.Draining
}

// stateLocked names m's liveness for the endpoints op.
func (r *Registry) stateLocked(m *member, now time.Time) string {
	if m.info.Draining {
		return StateDraining
	}
	if now.Sub(m.last) > time.Duration(r.cfg.SuspectAfter)*r.cfg.HeartbeatInterval {
		return StateSuspect
	}
	return StateAlive
}

// Snapshot returns the membership view, sorted by name — the endpoints
// op's answer and `continuumctl endpoints`' table.
func (r *Registry) Snapshot() []wire.MemberStatus {
	now := r.now()
	r.mu.Lock()
	changed := r.expireLocked(now)
	out := make([]wire.MemberStatus, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, wire.MemberStatus{
			MemberInfo: m.info,
			State:      r.stateLocked(m, now),
			AgeMS:      now.Sub(m.last).Milliseconds(),
		})
	}
	r.mu.Unlock()
	r.notify(changed)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MemberAddrs returns the dial addresses of every non-expired member —
// including suspect, cordoned, and draining ones. This is the set the
// router's ReliableClient holds connections to: a draining member must
// keep its connections (its in-flight work finishes on them), it just
// stops appearing in Routable.
func (r *Registry) MemberAddrs() []string {
	now := r.now()
	r.mu.Lock()
	changed := r.expireLocked(now)
	out := make([]string, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m.info.Addr)
	}
	r.mu.Unlock()
	r.notify(changed)
	sort.Strings(out)
	return out
}

// Routable returns the members that should receive new work — fresh
// heartbeat, not cordoned, not draining — sorted by name. Routing
// policies order their preferences over this set.
//
// This is the per-invocation read, so it is served from a cached view:
// in the steady state it reads the clock and one atomic pointer, takes
// no lock and allocates nothing. The returned slice is therefore shared
// between callers and read-only, and each AgeMS is the heartbeat's age
// when the view was built (at most one heartbeat arrival ago), not at
// the call. The view is rebuilt after any mutation and once the clock
// passes the first instant a member in it could turn suspect or expire.
func (r *Registry) Routable() []wire.MemberStatus {
	now := r.now()
	if v := r.routable.Load(); v.validAt(now) {
		return v.members
	}
	r.mu.Lock()
	if v := r.routable.Load(); v.validAt(now) {
		r.mu.Unlock() // another caller rebuilt it while this one waited
		return v.members
	}
	changed := r.expireLocked(now)
	suspectAt := time.Duration(r.cfg.SuspectAfter) * r.cfg.HeartbeatInterval
	horizon := time.Duration(r.cfg.ExpireAfter) * r.cfg.HeartbeatInterval
	v := &routableView{
		members:    make([]wire.MemberStatus, 0, len(r.members)),
		validUntil: now.Add(horizon), // no members: nothing can change on time alone
	}
	for _, m := range r.members {
		until := m.last.Add(horizon)
		if r.routableLocked(m, now) {
			until = m.last.Add(min(suspectAt, horizon))
			v.members = append(v.members, wire.MemberStatus{
				MemberInfo: m.info,
				State:      StateAlive,
				AgeMS:      now.Sub(m.last).Milliseconds(),
			})
		}
		if until.Before(v.validUntil) {
			v.validUntil = until
		}
	}
	sort.Slice(v.members, func(i, j int) bool { return v.members[i].Name < v.members[j].Name })
	r.routable.Store(v)
	r.mu.Unlock()
	r.notify(changed)
	return v.members
}

// Len returns the current (non-expired) member count.
func (r *Registry) Len() int {
	now := r.now()
	r.mu.Lock()
	changed := r.expireLocked(now)
	n := len(r.members)
	r.mu.Unlock()
	r.notify(changed)
	return n
}
