package federation

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"continuum/internal/wire"
)

// Policy orders the routable members for one invocation. The returned
// slice is a preference-ordered dial-address list: the router's client
// tries the first admitted entry, a retry after its failure moves to
// the next, and an exhausted list degrades to round-robin failover over
// whatever is left. Implementations must be safe for concurrent use and
// must not retain or mutate members.
type Policy interface {
	Order(fn string, payload []byte, members []wire.MemberStatus) []string
}

// serves reports whether a member advertises fn. An empty Functions
// list means the member serves everything (a homogeneous fleet needs no
// capability filtering).
func serves(m *wire.MemberStatus, fn string) bool {
	if len(m.Functions) == 0 {
		return true
	}
	for _, f := range m.Functions {
		if f == fn {
			return true
		}
	}
	return false
}

// HashPolicy is rendezvous (highest-random-weight) hashing on
// function+payload affinity. The key covers the function name, every
// payload byte and the payload length; each capable member is weighted
// mix64(key ^ hash(name)) and the preference order is the members by
// descending weight, so the same arguments keep landing on the same
// member — warm containers and caches stay warm — and the rest of the
// list is that key's failover order. A weight depends only on its own
// key and member, so churn remaps the minimum: a leave moves just the
// keys the leaver held, a join just the keys the newcomer wins. There
// is no ring and no state: one pass over the members, one sort, and up
// to rankedOnStack members one allocation (the returned list).
//
// The mapping must agree across router restarts, replicas and
// architectures, so the hashes are fixed functions — CRC-32C, FNV-1a,
// the murmur3 finalizer — and TestHashPolicyGoldenVector pins them.
type HashPolicy struct{}

// castagnoli is CRC-32C, which amd64 and arm64 compute in hardware.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hashString is FNV-1a, for function and member names: strings short
// enough that a byte loop beats setting up anything wider.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// affinityKey is an invocation's identity: the function name, the whole
// payload (CRC-32C, low word) and its length (high word), left for
// mix64 to spread.
func affinityKey(fn string, payload []byte) uint64 {
	return hashString(fn) ^ (uint64(len(payload))<<32 | uint64(crc32.Checksum(payload, castagnoli)))
}

// mix64 is the murmur3 finalizer: full avalanche, so keys that differ
// in a few low bits (sequential payloads) and names that differ in one
// character still draw independent weights.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Order implements Policy.
func (HashPolicy) Order(fn string, payload []byte, members []wire.MemberStatus) []string {
	key := affinityKey(fn, payload)
	return rankBy(fn, members, func(m *wire.MemberStatus) uint64 {
		return ^mix64(key ^ hashString(m.Name)) // complemented: rankBy sorts ascending
	})
}

// LeastLoadedPolicy orders members by Site.Load over their latest
// heartbeat — (queue depth + in-flight) per advertised slot — so new
// work flows toward spare capacity. Load figures are one heartbeat old
// by construction; the router's breakers and retries absorb the
// staleness.
type LeastLoadedPolicy struct{}

// Order implements Policy.
func (LeastLoadedPolicy) Order(fn string, _ []byte, members []wire.MemberStatus) []string {
	return rankBy(fn, members, func(m *wire.MemberStatus) uint64 {
		// A non-negative float64's bit pattern sorts as the float does.
		return math.Float64bits(memberSite(m).Load())
	})
}

// memberSite is a member as its heartbeat shows it: queue + in-flight
// over the slot limit, or over the capacity for a member that
// advertises no limit.
func memberSite(m *wire.MemberStatus) Site {
	slots := m.SlotLimit
	if slots <= 0 {
		slots = m.Capacity
	}
	return Site{Backlog: max(int64(m.QueueDepth)+m.InFlight, 0), Slots: slots}
}

// rankedOnStack is how many members rankBy ranks in a stack buffer; a
// bigger fleet costs a second allocation.
const rankedOnStack = 64

// rankBy lists the dial addresses of the members that serve fn by
// ascending key, ties by name so input order never shows in the result.
func rankBy(fn string, members []wire.MemberStatus, key func(*wire.MemberStatus) uint64) []string {
	type ranked struct {
		key uint64
		idx int // into members
	}
	var buf [rankedOnStack]ranked
	r := buf[:0]
	if len(members) > len(buf) {
		r = make([]ranked, 0, len(members))
	}
	for i := range members {
		if m := &members[i]; serves(m, fn) {
			r = append(r, ranked{key(m), i})
		}
	}
	if len(r) == 0 {
		return nil
	}
	slices.SortFunc(r, func(a, b ranked) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return strings.Compare(members[a.idx].Name, members[b.idx].Name)
	})
	out := make([]string, len(r))
	for i, e := range r {
		out[i] = members[e.idx].Addr
	}
	return out
}

// PolicyNames lists the values PolicyByName accepts, the default first.
var PolicyNames = []string{"hash", "least-loaded"}

// PolicyByName maps a -policy flag value to its Policy; "" is the
// default, hash. An unknown name's error lists PolicyNames.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "hash":
		return HashPolicy{}, nil
	case "least-loaded":
		return LeastLoadedPolicy{}, nil
	}
	return nil, fmt.Errorf("unknown routing policy %q (want %s)", name, strings.Join(PolicyNames, " or "))
}

// Site is one candidate endpoint as a picker sees it, filled in by the
// caller from what it knows: a heartbeat, a simulated resource, its own
// dispatches still on their way.
type Site struct {
	Backlog  int64   // work running, queued or in flight toward the site
	Slots    int     // concurrency; <= 0 counts as 1
	Distance float64 // the caller's cost to reach the site, e.g. a latency
}

// Load is the site's backlog per slot: the one definition of load that
// LeastLoadedPolicy and every picker rank by.
func (s Site) Load() float64 {
	return float64(s.Backlog) / float64(max(s.Slots, 1))
}

// The pickers below each return the index of the chosen site; sites
// must not be empty, and ties go to the lowest index.

// LeastLoaded picks the site with the lowest Load, ignoring distance:
// funcX's spread heuristic.
func LeastLoaded(sites []Site) int { return argmin(sites, Site.Load) }

// Nearest picks the site with the lowest Distance: optimal while nobody
// else is calling.
func Nearest(sites []Site) int { return argmin(sites, func(s Site) float64 { return s.Distance }) }

// NearestSpill picks the nearest site unless its backlog exceeds twice
// its slots, and the least-loaded site then.
func NearestSpill(sites []Site) int {
	if i := Nearest(sites); sites[i].Load() <= 2 {
		return i
	}
	return LeastLoaded(sites)
}

// TwoChoices picks the less loaded of sites a and b, a on a tie: the
// power of two choices, near-optimal spread from two samples. The
// caller draws a and b, so the randomness stays in its own stream.
func TwoChoices(sites []Site, a, b int) int {
	if sites[b].Load() < sites[a].Load() {
		return b
	}
	return a
}

// argmin returns the index of the lowest key, the first on a tie.
func argmin(sites []Site, key func(Site) float64) int {
	best, bestKey := 0, key(sites[0])
	for i := 1; i < len(sites); i++ {
		if k := key(sites[i]); k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}
