package federation

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"continuum/internal/wire"
)

func routableSet(names ...string) []wire.MemberStatus {
	out := make([]wire.MemberStatus, len(names))
	for i, n := range names {
		out[i] = wire.MemberStatus{
			MemberInfo: wire.MemberInfo{Name: n, Addr: "addr-" + n, SlotLimit: 4},
			State:      StateAlive,
		}
	}
	return out
}

// TestHashPolicyAffinity: the same function+payload always lands on the
// same member, and distinct keys spread across the fleet.
func TestHashPolicyAffinity(t *testing.T) {
	members := routableSet("a", "b", "c")
	var p HashPolicy
	hits := map[string]int{}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("payload-%d", i))
		first := p.Order("fn", key, members)[0]
		again := p.Order("fn", key, members)[0]
		if first != again {
			t.Fatalf("key %d not stable: %s then %s", i, first, again)
		}
		hits[first]++
	}
	if len(hits) != 3 {
		t.Fatalf("200 keys landed on %d of 3 members: %v", len(hits), hits)
	}
	for addr, n := range hits {
		if n < 20 {
			t.Fatalf("distribution badly skewed: %s got %d of 200 (%v)", addr, n, hits)
		}
	}
}

// fleet is n routable members named m00, m01, … — the benchmark
// probe's naming, so the properties below hold for the shape measured.
func fleet(n int) []wire.MemberStatus {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
	}
	return routableSet(names...)
}

// counterPayload is the benchmark's payload shape: size bytes of fixed
// filler whose first 8 carry the request number.
func counterPayload(buf []byte, n uint64) []byte {
	binary.BigEndian.PutUint64(buf, n)
	return buf
}

// TestHashPolicyMinimalRemap is the point of rendezvous hashing, in both
// directions at fleet scale: a leave remaps only the keys the leaver
// held, a join only the keys the newcomer wins (about 1/n of them), and
// either way the rest of each key's failover order is undisturbed.
func TestHashPolicyMinimalRemap(t *testing.T) {
	const n, keys = 64, 5000
	full := fleet(n)
	gone := full[17]
	without := slices.Delete(slices.Clone(full), 17, 18)
	var p HashPolicy
	buf := make([]byte, 8)
	won := 0
	for i := 0; i < keys; i++ {
		key := counterPayload(buf, uint64(i))
		small := p.Order("fn", key, without)
		big := p.Order("fn", key, full)
		// Leave and join are the same pair of fleets read in opposite
		// directions: the two orders must differ by exactly the one
		// member, wherever it ranks.
		at := slices.Index(big, gone.Addr)
		if at < 0 || !slices.Equal(slices.Delete(slices.Clone(big), at, at+1), small) {
			t.Fatalf("key %d: order with %s is not the order without it plus one insertion:\n%v\n%v", i, gone.Name, big, small)
		}
		if at == 0 {
			won++
		}
	}
	if fair := keys / n; won < fair/2 || won > 2*fair {
		t.Fatalf("member %s holds %d of %d keys, fair share is %d", gone.Name, won, keys, fair)
	}
}

// TestOrderIsPermutationOfCapable: both policies return every capable
// member's address exactly once and nothing else, and the answer does
// not depend on the order the members are passed in.
func TestOrderIsPermutationOfCapable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []Policy{HashPolicy{}, LeastLoadedPolicy{}} {
		for round := 0; round < 200; round++ {
			members := fleet(1 + rng.Intn(100))
			var want []string
			for i := range members {
				m := &members[i]
				m.QueueDepth, m.InFlight = rng.Intn(4), int64(rng.Intn(4)) // few values: ties by name
				switch rng.Intn(4) {
				case 0:
					m.Functions = []string{"other"}
				case 1:
					m.Functions = []string{"other", "fn"}
				}
				if serves(m, "fn") {
					want = append(want, m.Addr)
				}
			}
			payload := counterPayload(make([]byte, 8+rng.Intn(64)), rng.Uint64())
			got := p.Order("fn", payload, members)
			sorted := slices.Clone(got)
			slices.Sort(sorted)
			slices.Sort(want)
			if !slices.Equal(sorted, want) {
				t.Fatalf("%T round %d: ordered %v, capable members are %v", p, round, sorted, want)
			}
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			if again := p.Order("fn", payload, members); !slices.Equal(again, got) {
				t.Fatalf("%T round %d: order depends on input order:\n%v\n%v", p, round, got, again)
			}
		}
	}
}

// maxShare routes keys sequential request numbers in a payload of size
// bytes over members and returns the busiest member's share of them.
func maxShare(members []wire.MemberStatus, keys, size int) float64 {
	var p HashPolicy
	hits := map[string]int{}
	buf := make([]byte, size)
	for i := 0; i < keys; i++ {
		hits[p.Order("echo", counterPayload(buf, uint64(i)), members)[0]]++
	}
	most := 0
	for _, n := range hits {
		most = max(most, n)
	}
	return float64(most) / float64(keys)
}

// TestHashPolicyBalance: first choices spread evenly, at fleet scale and
// on the benchmark's own shape (3 members, payloads that differ only in
// an 8-byte counter — the low-entropy case a weak mix would clump).
func TestHashPolicyBalance(t *testing.T) {
	if got, limit := maxShare(fleet(64), 20000, 8), 1.3/64; got > limit {
		t.Errorf("64 members x 20k keys: busiest member holds %.4f of the keys, limit %.4f (1.3x fair)", got, limit)
	}
	for _, size := range []int{64, 64 << 10} {
		if got := maxShare(routableSet("d1", "d2", "d3"), 3000, size); got > 0.40 {
			t.Errorf("3 members, sequential %d-byte payloads: busiest member holds %.3f of the keys, limit 0.40", size, got)
		}
	}
}

// TestHashPolicyGoldenVector pins (fn, payload, names) -> order. The
// mapping is what keeps a key on its warm container across router
// restarts, replicas and architectures; a change to any of the hashes
// shows up here as a deliberate edit, not as a silent fleet-wide remap.
func TestHashPolicyGoldenVector(t *testing.T) {
	members := routableSet("d1", "d2", "d3", "edge-7", "hpc-login")
	seq := make([]byte, 300)
	for i := range seq {
		seq[i] = byte(i)
	}
	for _, tc := range []struct {
		fn      string
		payload []byte
		want    string
	}{
		{"echo", nil, "[addr-edge-7 addr-hpc-login addr-d3 addr-d1 addr-d2]"},
		{"echo", []byte{0, 0, 0, 0, 0, 0, 0, 1}, "[addr-hpc-login addr-d3 addr-d1 addr-d2 addr-edge-7]"},
		{"matmul", []byte(`{"n":32}`), "[addr-edge-7 addr-d3 addr-d2 addr-hpc-login addr-d1]"},
		{"echo", seq, "[addr-d3 addr-d2 addr-d1 addr-hpc-login addr-edge-7]"},
	} {
		if got := fmt.Sprint(HashPolicy{}.Order(tc.fn, tc.payload, members)); got != tc.want {
			t.Errorf("Order(%q, %d bytes) = %s, pinned %s", tc.fn, len(tc.payload), got, tc.want)
		}
	}
}

// TestOrderAllocations: one allocation — the returned list — per call,
// for either policy, at the benchmark probe's fleet sizes; the pickers
// allocate nothing.
func TestOrderAllocations(t *testing.T) {
	payload := make([]byte, 64)
	for _, p := range []Policy{HashPolicy{}, LeastLoadedPolicy{}} {
		for _, n := range []int{3, 64} {
			members := fleet(n)
			if got := testing.AllocsPerRun(100, func() { p.Order("echo", payload, members) }); got > 1 {
				t.Errorf("%T.Order over %d members: %.0f allocations per call, want at most 1", p, n, got)
			}
		}
	}
	sites := make([]Site, 64)
	for i := range sites {
		sites[i] = Site{Backlog: int64(i % 5), Slots: i % 3, Distance: float64(i % 7)}
	}
	for name, pick := range map[string]func([]Site) int{
		"LeastLoaded":  LeastLoaded,
		"Nearest":      Nearest,
		"NearestSpill": NearestSpill,
		"TwoChoices":   func(s []Site) int { return TwoChoices(s, 3, 60) },
	} {
		if got := testing.AllocsPerRun(100, func() { pick(sites) }); got != 0 {
			t.Errorf("%s over %d sites: %.0f allocations per call, want 0", name, len(sites), got)
		}
	}
}

// TestHashPolicyCapabilityFilter: members that do not advertise the
// function are excluded; an empty Functions list serves everything.
func TestHashPolicyCapabilityFilter(t *testing.T) {
	members := routableSet("a", "b")
	members[0].Functions = []string{"other"}
	var p HashPolicy
	order := p.Order("fn", []byte("x"), members)
	if len(order) != 1 || order[0] != "addr-b" {
		t.Fatalf("capability filter order = %v, want [addr-b]", order)
	}
}

// TestLeastLoadedOrder: members sort by (queue+inflight)/slots, ties by
// name.
func TestLeastLoadedOrder(t *testing.T) {
	members := routableSet("a", "b", "c")
	members[0].QueueDepth, members[0].InFlight = 4, 4 // 2.0
	members[1].QueueDepth, members[1].InFlight = 0, 2 // 0.5
	members[2].QueueDepth, members[2].InFlight = 0, 0 // 0.0
	var p LeastLoadedPolicy
	order := p.Order("fn", nil, members)
	want := []string{"addr-c", "addr-b", "addr-a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("least-loaded order = %v, want %v", order, want)
		}
	}
}

// TestPolicyByName covers the flag-value mapping: every listed name
// resolves, "" is hash, and anything else is an error naming the list.
func TestPolicyByName(t *testing.T) {
	if p, err := PolicyByName(""); err != nil {
		t.Fatal("default policy missing:", err)
	} else if _, isHash := p.(HashPolicy); !isHash {
		t.Fatalf("default policy = %T, want HashPolicy", p)
	}
	for _, name := range PolicyNames {
		if _, err := PolicyByName(name); err != nil {
			t.Fatalf("listed policy %q: %v", name, err)
		}
	}
	for _, name := range []string{"bogus", "least_loaded", "leastloaded", "nearest"} {
		_, err := PolicyByName(name)
		if err == nil {
			t.Fatalf("policy %q accepted; only \"\" and %v are", name, PolicyNames)
		}
		if !strings.Contains(err.Error(), "hash or least-loaded") {
			t.Fatalf("policy %q: error %q does not list the accepted names", name, err)
		}
	}
}

// TestPickers pins each picker's choice, ties to the lowest index.
func TestPickers(t *testing.T) {
	type pick func([]Site) int
	twoChoices := func(a, b int) pick { return func(s []Site) int { return TwoChoices(s, a, b) } }
	for _, tc := range []struct {
		name  string
		pick  pick
		sites []Site
		want  int
	}{
		{"least-loaded", LeastLoaded, []Site{{Backlog: 3, Slots: 2}, {Backlog: 1, Slots: 2}, {Backlog: 4, Slots: 8}}, 1},
		{"least-loaded tie", LeastLoaded, []Site{{Backlog: 4, Slots: 2}, {Backlog: 2, Slots: 2}, {Backlog: 4, Slots: 4}}, 1},
		{"least-loaded slots 0 is 1", LeastLoaded, []Site{{Backlog: 1, Slots: 0}, {Backlog: 3, Slots: 2}}, 0},
		{"least-loaded negative slots is 1", LeastLoaded, []Site{{Backlog: 1, Slots: 4}, {Backlog: 1, Slots: -4}}, 0},
		{"nearest", Nearest, []Site{{Distance: 3}, {Distance: 1}, {Distance: 2}}, 1},
		{"nearest tie", Nearest, []Site{{Distance: 2}, {Distance: 1, Backlog: 9}, {Distance: 1}}, 1},
		{"two-choices", twoChoices(0, 2), []Site{{Backlog: 2, Slots: 1}, {}, {Backlog: 1, Slots: 1}}, 2},
		{"two-choices keeps a on a tie", twoChoices(2, 0), []Site{{Backlog: 1, Slots: 1}, {}, {Backlog: 2, Slots: 2}}, 2},
		{"nearest-spill stays at 2x slots", NearestSpill, []Site{{Distance: 1, Backlog: 8, Slots: 4}, {Distance: 5}}, 0},
		{"nearest-spill spills at 2x slots + 1", NearestSpill, []Site{{Distance: 1, Backlog: 9, Slots: 4}, {Distance: 5, Backlog: 1, Slots: 4}, {Distance: 9}}, 2},
		{"nearest-spill slots 0 is 1", NearestSpill, []Site{{Distance: 1, Backlog: 2}, {Distance: 5}}, 0},
	} {
		if got := tc.pick(tc.sites); got != tc.want {
			t.Errorf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestLeastLoadedOrderLeadsWithPick: LeastLoadedPolicy ranks by the
// same Site.Load as LeastLoaded, so over members listed in name order
// (ties broken the same way) its first entry is LeastLoaded's pick.
func TestLeastLoadedOrderLeadsWithPick(t *testing.T) {
	var p LeastLoadedPolicy
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		members := fleet(1 + rng.Intn(64))
		sites := make([]Site, len(members))
		for i := range members {
			m := &members[i]
			m.QueueDepth, m.InFlight = rng.Intn(4), int64(rng.Intn(4))
			m.SlotLimit, m.Capacity = rng.Intn(4), 1+rng.Intn(4) // a zero limit falls back to capacity
			sites[i] = memberSite(m)
		}
		if got, want := p.Order("fn", nil, members)[0], members[LeastLoaded(sites)].Addr; got != want {
			t.Fatalf("round %d: Order leads with %s, LeastLoaded picks %s", round, got, want)
		}
	}
}
