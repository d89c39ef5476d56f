package federation

// Membership state-machine tests under an injected clock: the
// suspect/expiry ladder, the late heartbeat after expiry, duplicate
// registration superseding the old incarnation, and drain semantics —
// the churn edges the live federation must survive.

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"continuum/internal/wire"
)

// fakeClock is an injectable, manually-advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testRegistry(clk *fakeClock) *Registry {
	return NewRegistry(Config{
		HeartbeatInterval: time.Second,
		SuspectAfter:      2,
		ExpireAfter:       4,
		Now:               clk.now,
	})
}

func memberInfo(name, addr string) wire.MemberInfo {
	return wire.MemberInfo{Name: name, Addr: addr, Capacity: 4}
}

func stateOf(t *testing.T, r *Registry, name string) string {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m.State
		}
	}
	return "(gone)"
}

// TestSuspectExpiryLadder: fresh → suspect after SuspectAfter missed
// intervals → expired (removed) after ExpireAfter, with a heartbeat
// resetting the ladder at any pre-expiry rung.
func TestSuspectExpiryLadder(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(clk)
	gen, err := r.Register(memberInfo("a", "addr-a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, r, "a"); got != StateAlive {
		t.Fatalf("state after register = %s, want alive", got)
	}
	if len(r.Routable()) != 1 {
		t.Fatal("fresh member not routable")
	}

	// 2 intervals silent: suspect — listed, but no new work.
	clk.advance(2*time.Second + time.Millisecond)
	if got := stateOf(t, r, "a"); got != StateSuspect {
		t.Fatalf("state after 2 silent intervals = %s, want suspect", got)
	}
	if len(r.Routable()) != 0 {
		t.Fatal("suspect member still routable")
	}
	if len(r.MemberAddrs()) != 1 {
		t.Fatal("suspect member dropped from the connection set; in-flight work would be severed early")
	}

	// A heartbeat brings it back.
	if err := r.Heartbeat(wire.MemberInfo{Name: "a", Generation: gen}); err != nil {
		t.Fatalf("heartbeat from suspect member: %v", err)
	}
	if got := stateOf(t, r, "a"); got != StateAlive {
		t.Fatalf("state after recovery heartbeat = %s, want alive", got)
	}

	// 4+ intervals silent: expired, fully gone.
	clk.advance(4*time.Second + time.Millisecond)
	if got := stateOf(t, r, "a"); got != "(gone)" {
		t.Fatalf("state after expiry horizon = %s, want removed", got)
	}
	if len(r.MemberAddrs()) != 0 {
		t.Fatal("expired member still in the connection set")
	}
}

// TestLateHeartbeatAfterExpiry: a heartbeat arriving after the member
// expired must be rejected with ErrUnknownMember — the cure is
// re-registration, which hands out a fresh generation.
func TestLateHeartbeatAfterExpiry(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(clk)
	gen, err := r.Register(memberInfo("a", "addr-a"))
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(5 * time.Second)
	if err := r.Heartbeat(wire.MemberInfo{Name: "a", Generation: gen}); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("late heartbeat after expiry = %v, want ErrUnknownMember", err)
	}
	// Re-registration rejoins with a NEW generation; the old one stays dead.
	gen2, err := r.Register(memberInfo("a", "addr-a"))
	if err != nil {
		t.Fatal(err)
	}
	if gen2 == gen {
		t.Fatalf("re-registration reused generation %d", gen)
	}
	if err := r.Heartbeat(wire.MemberInfo{Name: "a", Generation: gen}); !errors.Is(err, ErrUnknownMember) {
		t.Fatal("heartbeat with the expired generation accepted after re-registration")
	}
	if err := r.Heartbeat(wire.MemberInfo{Name: "a", Generation: gen2}); err != nil {
		t.Fatalf("heartbeat with the fresh generation: %v", err)
	}
}

// TestDuplicateRegistrationSupersedes: registering an already-present
// name wins — the previous incarnation's generation is retired, so its
// lingering heartbeats (a restarted daemon's earlier life, a
// misconfigured clone) cannot corrupt the new registration's state.
func TestDuplicateRegistrationSupersedes(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(clk)
	gen1, err := r.Register(memberInfo("a", "addr-old"))
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := r.Register(memberInfo("a", "addr-new"))
	if err != nil {
		t.Fatalf("duplicate registration must supersede, not fail: %v", err)
	}
	if gen2 <= gen1 {
		t.Fatalf("superseding generation %d not newer than %d", gen2, gen1)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("members after duplicate registration = %d, want 1", n)
	}
	if addrs := r.MemberAddrs(); len(addrs) != 1 || addrs[0] != "addr-new" {
		t.Fatalf("addresses after supersede = %v, want [addr-new]", addrs)
	}
	if err := r.Heartbeat(wire.MemberInfo{Name: "a", Generation: gen1}); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("old incarnation's heartbeat = %v, want ErrUnknownMember", err)
	}
	// And the old incarnation cannot evict its successor on shutdown.
	if err := r.Deregister("a", gen1, false); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("old incarnation's deregister = %v, want ErrUnknownMember", err)
	}
	if n := r.Len(); n != 1 {
		t.Fatal("stale deregister evicted the superseding registration")
	}
}

// TestDrainSemantics: a draining member leaves the routable set
// immediately, stays listed (state "draining") and connected, keeps its
// liveness refreshed by the drain itself, and disappears on the final
// deregister.
func TestDrainSemantics(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(clk)
	gen, err := r.Register(memberInfo("a", "addr-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Deregister("a", gen, true); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := stateOf(t, r, "a"); got != StateDraining {
		t.Fatalf("state after drain = %s, want draining", got)
	}
	if len(r.Routable()) != 0 {
		t.Fatal("draining member still routable")
	}
	if len(r.MemberAddrs()) != 1 {
		t.Fatal("draining member dropped from the connection set; its in-flight work would be severed")
	}
	// Final leave removes it.
	if err := r.Deregister("a", gen, false); err != nil {
		t.Fatalf("final deregister: %v", err)
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("members after final deregister = %d, want 0", n)
	}
}

// TestOnChangeFires: every membership mutation must fire the hook —
// it is how the router keeps its routing set in sync.
func TestOnChangeFires(t *testing.T) {
	clk := newFakeClock()
	var calls int
	r := NewRegistry(Config{
		HeartbeatInterval: time.Second,
		Now:               clk.now,
		OnChange:          func() { calls++ },
	})
	gen, _ := r.Register(memberInfo("a", "addr-a"))
	if calls == 0 {
		t.Fatal("register did not fire OnChange")
	}
	before := calls
	// A plain load-refresh heartbeat is NOT a membership change.
	if err := r.Heartbeat(wire.MemberInfo{Name: "a", Generation: gen, InFlight: 3}); err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Fatal("load-only heartbeat fired OnChange")
	}
	// A cordon flip is: the member left the routable set.
	if err := r.Heartbeat(wire.MemberInfo{Name: "a", Generation: gen, Cordoned: true}); err != nil {
		t.Fatal(err)
	}
	if calls == before {
		t.Fatal("cordon flip did not fire OnChange")
	}
	before = calls
	// Expiry via Sweep fires too.
	clk.advance(time.Hour)
	r.Sweep()
	if calls == before {
		t.Fatal("expiry sweep did not fire OnChange")
	}
}

// modelMember is the reference model's whole state for one member: the
// registry's contract restated over a plain map, with no cache.
type modelMember struct {
	info wire.MemberInfo
	last time.Time
}

// registryModel mirrors testRegistry's configuration (1 s interval,
// suspect after 2, expired after 4).
type registryModel map[string]*modelMember

func (md registryModel) expire(now time.Time) {
	for name, m := range md {
		if now.Sub(m.last) > 4*time.Second {
			delete(md, name)
		}
	}
}

// routable computes the routable set from scratch, sorted by name.
func (md registryModel) routable(now time.Time) []wire.MemberStatus {
	md.expire(now)
	var out []wire.MemberStatus
	for _, m := range md {
		if now.Sub(m.last) <= 2*time.Second && !m.info.Cordoned && !m.info.Draining {
			out = append(out, wire.MemberStatus{MemberInfo: m.info, State: StateAlive, AgeMS: now.Sub(m.last).Milliseconds()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TestRoutableMatchesModel drives seeded random sequences of register,
// heartbeat (load, cordon flips, stale generations), drain, deregister
// and pure clock advances — landing on, one tick before and one tick
// after the suspect and expiry instants, where a cached view that
// outlives its validity would show — and after every step compares the
// cached Routable with the model's from-scratch answer.
func TestRoutableMatchesModel(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := newFakeClock()
		r := testRegistry(clk)
		model := registryModel{}
		for step := 0; step < 400; step++ {
			name := names[rng.Intn(len(names))]
			now := clk.now()
			model.expire(now)
			m := model[name]
			// Mostly the live generation; sometimes a stale or unknown one.
			gen := int64(rng.Intn(3))
			if m != nil && rng.Intn(5) > 0 {
				gen = m.info.Generation
			}
			known := m != nil && m.info.Generation == gen
			var op string
			var err error
			switch rng.Intn(8) {
			case 0:
				op = "register"
				info := memberInfo(name, "addr-"+name)
				if rng.Intn(3) == 0 {
					info.Functions = []string{"fn"}
				}
				if info.Generation, err = r.Register(info); err == nil {
					model[name] = &modelMember{info: info, last: now}
				}
				known = true
			case 1, 2, 3:
				op = "heartbeat"
				hb := wire.MemberInfo{Name: name, Generation: gen, QueueDepth: rng.Intn(9), InFlight: int64(rng.Intn(9)), SlotLimit: 4, Cordoned: rng.Intn(4) == 0}
				err = r.Heartbeat(hb)
				if known {
					m.info.QueueDepth, m.info.InFlight, m.info.SlotLimit, m.info.Cordoned = hb.QueueDepth, hb.InFlight, hb.SlotLimit, hb.Cordoned
					m.last = now
				}
			case 4:
				op = "drain"
				err = r.Deregister(name, gen, true)
				if known {
					m.info.Draining, m.last = true, now
				}
			case 5:
				op = "deregister"
				err = r.Deregister(name, gen, false)
				if known {
					delete(model, name)
				}
			default:
				op = "advance"
				known = true
				d := time.Duration(rng.Intn(1500)) * time.Millisecond
				if m != nil && rng.Intn(2) == 0 {
					// To a boundary of this member's ladder, give or take a tick.
					edge := m.last.Add([]time.Duration{2 * time.Second, 4 * time.Second}[rng.Intn(2)])
					if to := edge.Add(time.Duration(rng.Intn(3)-1) * time.Nanosecond).Sub(now); to > 0 {
						d = to
					}
				}
				clk.advance(d)
			}
			if wantErr := !known; (err != nil) != wantErr || (wantErr && !errors.Is(err, ErrUnknownMember)) {
				t.Fatalf("seed %d step %d: %s %s gen %d: error %v, model says known=%v", seed, step, op, name, gen, err, known)
			}

			now = clk.now()
			got, want := r.Routable(), model.routable(now)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d after %s %s: routable %v, model %v", seed, step, op, name, got, want)
			}
			for i := range want {
				// AgeMS is as of view build: anywhere from 0 to the true age.
				if got[i].AgeMS < 0 || got[i].AgeMS > want[i].AgeMS {
					t.Fatalf("seed %d step %d after %s %s: %s AgeMS %d, true age %d", seed, step, op, name, got[i].Name, got[i].AgeMS, want[i].AgeMS)
				}
				g := got[i] // a copy: the slice is the registry's shared view
				g.AgeMS = want[i].AgeMS
				if !reflect.DeepEqual(g, want[i]) {
					t.Fatalf("seed %d step %d after %s %s: routable[%d] = %+v, model %+v", seed, step, op, name, i, g, want[i])
				}
			}
		}
	}
}

// TestRoutableSteadyStateTakesNoLock: with a valid view in place,
// Routable must return while another goroutine holds the registry lock,
// and must allocate nothing.
func TestRoutableSteadyStateTakesNoLock(t *testing.T) {
	r := testRegistry(newFakeClock())
	for _, n := range []string{"a", "b", "c"} {
		if _, err := r.Register(memberInfo(n, "addr-"+n)); err != nil {
			t.Fatal(err)
		}
	}
	r.Routable() // builds the view
	r.mu.Lock()
	done := make(chan float64, 1)
	go func() {
		done <- testing.AllocsPerRun(100, func() {
			if len(r.Routable()) != 3 {
				t.Error("cached view lost members")
			}
		})
	}()
	select {
	case allocs := <-done:
		r.mu.Unlock()
		if allocs != 0 {
			t.Fatalf("steady-state Routable allocates %.0f objects per call, want 0", allocs)
		}
	case <-time.After(5 * time.Second):
		r.mu.Unlock()
		t.Fatal("steady-state Routable blocked on the registry lock")
	}
}

// TestRoutableHammer is the -race gate for the lock-free view: readers
// race heartbeats, cordon flips, register/deregister churn, sweeps and
// a clock that keeps crossing the suspect and expiry instants. Every
// answer must be a well-formed routable set.
func TestRoutableHammer(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(clk)
	names := []string{"a", "b", "c", "d"}
	gens := make([]atomic.Int64, len(names))
	register := func(i int) {
		gen, err := r.Register(memberInfo(names[i], "addr-"+names[i]))
		if err != nil {
			t.Error(err)
		}
		gens[i].Store(gen)
	}
	for i := range names {
		register(i)
	}
	const rounds = 2000
	var wg sync.WaitGroup
	start := func(f func(n int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				f(n)
			}
		}()
	}
	for reader := 0; reader < 4; reader++ {
		start(func(int) {
			ms := r.Routable()
			for i, m := range ms {
				if m.State != StateAlive || m.Cordoned || m.Draining || m.Addr != "addr-"+m.Name || (i > 0 && ms[i-1].Name >= m.Name) {
					t.Errorf("malformed routable set: %+v", ms)
					return
				}
			}
		})
	}
	start(func(n int) { // heartbeats; a stale generation is just rejected
		i := n % len(names)
		_ = r.Heartbeat(wire.MemberInfo{Name: names[i], Generation: gens[i].Load(), InFlight: int64(n % 7), Cordoned: n%11 == 0})
	})
	start(func(n int) { // churn: d leaves (drain, then for good) and comes back
		switch n % 50 {
		case 10:
			_ = r.Deregister("d", gens[3].Load(), true)
		case 20:
			_ = r.Deregister("d", gens[3].Load(), false)
		case 30:
			register(3)
		}
	})
	start(func(n int) { // time passes; silent members lapse and are swept
		clk.advance(700 * time.Millisecond)
		r.Sweep()
		if n%100 == 0 { // a, b, c expire whenever the heartbeater falls behind
			for i := 0; i < 3; i++ {
				register(i)
			}
		}
	})
	wg.Wait()
}
