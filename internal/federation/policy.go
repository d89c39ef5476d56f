package federation

import (
	"cmp"
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

// LeastLoadedPolicy orders members by instantaneous load pressure —
// (queue depth + in-flight) normalized by the advertised slot limit —
// so new work flows toward spare capacity. Load figures are one
// heartbeat old by construction; the router's breakers and retries
// absorb the staleness.
type LeastLoadedPolicy struct{}

// Order implements Policy.
func (LeastLoadedPolicy) Order(fn string, _ []byte, members []wire.MemberStatus) []string {
	return rankBy(fn, members, func(m *wire.MemberStatus) uint64 {
		slots := m.SlotLimit
		if slots <= 0 {
			slots = m.Capacity
		}
		if slots <= 0 {
			slots = 1
		}
		// A non-negative float64's bit pattern sorts as the float does.
		return math.Float64bits(float64(max(m.QueueDepth+int(m.InFlight), 0)) / float64(slots))
	})
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

// PolicyByName maps the -policy flag values to implementations:
// "hash" (rendezvous hashing, the default) and "least-loaded".
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "", "hash":
		return HashPolicy{}, true
	case "least-loaded":
		return LeastLoadedPolicy{}, true
	}
	return nil, false
}
