package faas

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// observeWait feeds one admission's queue wait into a's AIMD bound.
func (a *admitter) observeWait(d time.Duration) {
	a.mu.Lock()
	a.Observe(d)
	a.mu.Unlock()
}

// gateModel is the reference the Gate core is checked against: the same
// rules over plain ID queues, written out step by step.
type gateModel struct {
	cfg                            AdmissionConfig
	capacity, slots, inUse, qLimit int
	maxQueue, floor, obsN, idleN   int
	ewma                           float64
	queues                         [NumPriorities][]int
	shed                           [NumPriorities]int64
}

// newGateModel resolves cfg's defaults as AdmissionConfig documents
// them: a queue bound of 4 × capacity, a floor of capacity/4 (capacity
// for a plain gate).
func newGateModel(cfg AdmissionConfig, capacity int) *gateModel {
	m := &gateModel{cfg: cfg, capacity: capacity, slots: capacity, maxQueue: max(4*capacity, NumPriorities), floor: capacity}
	if cfg.MaxQueue > 0 {
		m.maxQueue = max(cfg.MaxQueue, NumPriorities)
	}
	if cfg.Enabled {
		m.floor = max(1, capacity/4)
		if cfg.MinSlots > 0 {
			m.floor = min(cfg.MinSlots, capacity)
		}
	}
	m.qLimit = m.maxQueue
	return m
}

func (m *gateModel) queued() int {
	n := 0
	for _, q := range m.queues {
		n += len(q)
	}
	return n
}

func (m *gateModel) observe(d time.Duration) {
	if !m.cfg.Enabled {
		return
	}
	m.ewma = 0.8*m.ewma + 0.2*d.Seconds()
	if m.obsN++; m.obsN < 8 {
		return
	}
	m.obsN = 0
	target := 0.02
	if m.cfg.TargetQueueWait > 0 {
		target = m.cfg.TargetQueueWait.Seconds()
	}
	if m.ewma > target {
		m.qLimit = max(NumPriorities, m.qLimit/2)
	} else if m.ewma < target/2 && m.qLimit < m.maxQueue {
		m.qLimit++
	}
}

// arrive returns "admit", "queue" or "shed", and the ID evicted (-1 for
// none).
func (m *gateModel) arrive(id, cls int) (string, int) {
	if !m.cfg.Enabled {
		cls = 0
	}
	if m.inUse == m.slots && m.slots < m.capacity && m.queued() >= 2*m.slots {
		m.slots++
		m.idleN = 0
	}
	if m.inUse < m.slots {
		m.inUse++
		m.observe(0)
		return "admit", -1
	}
	evicted := -1
	if m.cfg.Enabled && m.queued() >= max(1, m.qLimit*(cls+1)/NumPriorities) {
		for vc := 0; vc < cls && evicted < 0; vc++ {
			if q := m.queues[vc]; len(q) > 0 {
				evicted, m.queues[vc] = q[len(q)-1], q[:len(q)-1]
				m.shed[vc]++
			}
		}
		if evicted < 0 {
			m.shed[cls]++
			return "shed", -1
		}
	}
	m.queues[cls] = append(m.queues[cls], id)
	return "queue", evicted
}

// grant returns the ID a freed slot passes to, or -1.
func (m *gateModel) grant() int {
	for cls := NumPriorities - 1; cls >= 0; cls-- {
		if q := m.queues[cls]; len(q) > 0 {
			m.queues[cls] = q[1:]
			return q[0]
		}
	}
	m.inUse--
	return -1
}

func (m *gateModel) release() int {
	next := m.grant()
	if m.queued() == 0 && m.inUse < m.slots {
		if m.idleN++; m.idleN >= 16 && m.slots > m.floor {
			m.slots--
			m.idleN = 0
		}
	} else {
		m.idleN = 0
	}
	return next
}

// TestGateMatchesModel drives the Gate core with seeded random sequences
// of arrivals (any class), releases, abandons and clock advances, on
// plain and enabled gates of random sizes, and checks every step against
// gateModel and the gate's invariants. At the end it drains the gate:
// every waiter must then have been resolved exactly once — granted,
// evicted or abandoned.
func TestGateMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := AdmissionConfig{
			Enabled:         rng.Intn(4) != 0,
			MaxQueue:        rng.Intn(24),
			MinSlots:        rng.Intn(4),
			TargetQueueWait: time.Duration(1+rng.Intn(20)) * time.Millisecond,
		}
		capacity := 1 + rng.Intn(8)
		g := NewGate[int](cfg, capacity)
		m := newGateModel(cfg, capacity)

		var now time.Duration
		enq := map[int]time.Duration{}
		waiters := map[int]*Waiter[int]{}
		fate := map[int]string{} // queued ID → "granted", "evicted" or "abandoned"
		var holders []int        // IDs holding a slot
		resolve := func(id int, how string) {
			if fate[id] != "" {
				t.Fatalf("seed %d: waiter %d resolved twice (%s, then %s)", seed, id, fate[id], how)
			}
			fate[id] = how
		}
		// granted records the waiter a freed slot passed to, checking it
		// against the model's choice: highest class first, FIFO within one.
		granted := func(w *Waiter[int], want int) {
			if (w == nil) != (want < 0) || (w != nil && w.Val != want) {
				t.Fatalf("seed %d: slot passed to %v, model says %d", seed, w, want)
			}
			if w != nil {
				resolve(w.Val, "granted")
				g.Observe(now - enq[w.Val])
				m.observe(now - enq[w.Val])
				holders = append(holders, w.Val)
			}
		}
		takeHolder := func() int {
			i := rng.Intn(len(holders))
			id := holders[i]
			holders = slices.Delete(holders, i, i+1)
			return id
		}

		for id := 0; id < 600; id++ {
			switch op := rng.Intn(10); {
			case op < 4: // arrive
				p := Priority(rng.Intn(NumPriorities)) + PriorityLow
				admitted, w, evicted := g.Arrive(p, id)
				want, wantEvicted := m.arrive(id, p.Class())
				got := map[bool]string{true: "admit", false: "shed"}[admitted]
				if w != nil {
					got = "queue"
					waiters[id], enq[id] = w, now
				}
				if got != want || (evicted == nil) != (wantEvicted < 0) || (evicted != nil && evicted.Val != wantEvicted) {
					t.Fatalf("seed %d: arrival %d (%v) got %s evicting %v, model %s evicting %d",
						seed, id, p, got, evicted, want, wantEvicted)
				}
				if admitted {
					holders = append(holders, id)
				}
				if evicted != nil {
					resolve(evicted.Val, "evicted")
				}
			case op < 7 && len(holders) > 0: // release
				takeHolder()
				granted(g.Release(), m.release())
			case op < 8 && id > 0: // a caller gives up while queued, or after its eviction
				v := rng.Intn(id)
				if waiters[v] == nil || (fate[v] != "" && fate[v] != "evicted") {
					continue
				}
				shed := cfg.Enabled && rng.Intn(2) == 0
				if next := g.abandon(waiters[v], shed); next != nil {
					t.Fatalf("seed %d: abandoning queued or evicted %d passed a slot to %d", seed, v, next.Val)
				}
				if fate[v] == "" {
					resolve(v, "abandoned")
					cls := waiters[v].class
					m.queues[cls] = slices.DeleteFunc(m.queues[cls], func(x int) bool { return x == v })
					if shed {
						m.shed[cls]++
					}
				}
			case op < 9 && len(holders) > 0: // a granted caller gives up: its slot passes on
				id := takeHolder()
				if w := waiters[id]; w != nil {
					granted(g.abandon(w, true), m.grant())
				} else {
					granted(g.Release(), m.release()) // admitted at once: a plain release
				}
			default:
				now += time.Duration(rng.Intn(40)) * time.Millisecond
			}
			checkGate(t, seed, g, m)
		}
		for len(holders) > 0 {
			takeHolder()
			granted(g.Release(), m.release())
			checkGate(t, seed, g, m)
		}
		if g.queued != 0 || g.inUse != 0 {
			t.Fatalf("seed %d: drained gate holds %d queued, %d in use", seed, g.queued, g.inUse)
		}
		for id := range waiters {
			if fate[id] == "" {
				t.Fatalf("seed %d: waiter %d never resolved", seed, id)
			}
		}
	}
}

// checkGate compares g with the model and checks its invariants.
func checkGate(t *testing.T, seed int64, g *Gate[int], m *gateModel) {
	t.Helper()
	if g.inUse > g.slots || g.slots > g.capacity || g.slots < m.floor {
		t.Fatalf("seed %d: inUse %d, slots %d, capacity %d, floor %d", seed, g.inUse, g.slots, g.capacity, m.floor)
	}
	if g.qLimit < NumPriorities || g.qLimit > m.maxQueue {
		t.Fatalf("seed %d: queue bound %d outside [%d, %d]", seed, g.qLimit, NumPriorities, m.maxQueue)
	}
	sum := 0
	for cls, q := range g.queues {
		sum += len(q)
		ids := make([]int, len(q))
		for i, w := range q {
			ids[i] = w.Val
		}
		if !slices.Equal(ids, m.queues[cls]) {
			t.Fatalf("seed %d: class %d queue %v, model %v", seed, cls, ids, m.queues[cls])
		}
	}
	if sum != g.queued {
		t.Fatalf("seed %d: queued %d, class queues hold %d", seed, g.queued, sum)
	}
	if g.inUse != m.inUse || g.slots != m.slots || g.qLimit != m.qLimit || g.Shed() != m.shed {
		t.Fatalf("seed %d: gate inUse/slots/qLimit/shed %d/%d/%d/%v, model %d/%d/%d/%v",
			seed, g.inUse, g.slots, g.qLimit, g.Shed(), m.inUse, m.slots, m.qLimit, m.shed)
	}
}
