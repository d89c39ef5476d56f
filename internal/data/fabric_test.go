package data

import (
	"math"
	"testing"
	"testing/quick"

	"continuum/internal/netsim"
	"continuum/internal/sim"
	"continuum/internal/workload"
)

// line builds a chain of n vertices with identical hops.
func line(k *sim.Kernel, n int, hopLatency, capacity float64) *netsim.Network {
	net := netsim.New(k, n)
	for i := 1; i < n; i++ {
		net.AddDuplexLink(i-1, i, hopLatency, capacity)
	}
	return net
}

// testFabric builds a 3-node line: edge(0) -- mid(1) -- home(2), with the
// dataset homes at node 2.
func testFabric(capacity float64, pol Policy) (*sim.Kernel, *Fabric) {
	k := sim.NewKernel()
	net := line(k, 3, 0.010, 1e6)
	f := NewFabric(net, workload.NewRNG(1))
	f.AddStore(0, capacity, pol)
	f.AddStore(1, capacity, pol)
	f.AddStore(2, 0, NoCache) // archive: pinned only
	return k, f
}

func TestPinAndLocate(t *testing.T) {
	_, f := testFabric(1e6, LRU)
	ds := Dataset{Name: "a", Bytes: 100}
	f.Pin(ds, 2)
	if !f.Holds(2, "a") || f.Holds(0, "a") {
		t.Fatal("Holds wrong after Pin")
	}
	locs := f.Locate("a")
	if len(locs) != 1 || locs[0] != 2 {
		t.Fatalf("Locate = %v", locs)
	}
}

func TestNearestReplica(t *testing.T) {
	_, f := testFabric(1e6, LRU)
	ds := Dataset{Name: "a", Bytes: 100}
	f.Pin(ds, 2)
	f.Pin(ds, 0)
	src, err := f.NearestReplica("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both are one hop; deterministic tie-break picks the lower id.
	if src != 0 {
		t.Fatalf("NearestReplica = %d, want 0", src)
	}
	if _, err := f.NearestReplica("missing", 1); err == nil {
		t.Fatal("missing dataset did not error")
	}
}

func TestStageHitIsImmediate(t *testing.T) {
	k, f := testFabric(1e6, LRU)
	ds := Dataset{Name: "a", Bytes: 1e5}
	f.Pin(ds, 0)
	var hit bool
	var at float64 = -1
	f.Stage(ds, 0, func(h bool) { hit = h; at = k.Now() })
	if !hit || at != 0 {
		t.Fatalf("local stage hit=%v at=%v", hit, at)
	}
	if f.stores[0].Hits != 1 {
		t.Fatal("hit not counted")
	}
}

func TestStageMissTransfersAndCaches(t *testing.T) {
	k, f := testFabric(1e6, LRU)
	ds := Dataset{Name: "a", Bytes: 5e5}
	f.Pin(ds, 2)
	var hit = true
	var at float64 = -1
	f.Stage(ds, 0, func(h bool) { hit = h; at = k.Now() })
	k.Run()
	if hit {
		t.Fatal("remote stage reported hit")
	}
	// Two hops of 10ms + 0.5s transmission at the 1MB/s bottleneck.
	if math.Abs(at-0.52) > 1e-6 {
		t.Fatalf("stage completed at %v, want 0.52", at)
	}
	if !f.Holds(0, "a") {
		t.Fatal("dataset not cached after miss")
	}
	if f.BytesMoved != 5e5 {
		t.Fatalf("BytesMoved = %v", f.BytesMoved)
	}
	// Second stage is now a hit.
	var hit2 bool
	f.Stage(ds, 0, func(h bool) { hit2 = h })
	if !hit2 {
		t.Fatal("second stage not a hit")
	}
}

func TestStageCoalescing(t *testing.T) {
	k, f := testFabric(1e6, LRU)
	ds := Dataset{Name: "a", Bytes: 5e5}
	f.Pin(ds, 2)
	calls := 0
	for i := 0; i < 3; i++ {
		f.Stage(ds, 0, func(bool) { calls++ })
	}
	k.Run()
	if calls != 3 {
		t.Fatalf("%d callbacks, want 3", calls)
	}
	if f.Coalesced != 2 {
		t.Fatalf("Coalesced = %d, want 2", f.Coalesced)
	}
	// One physical transfer only.
	if f.BytesMoved != 5e5 {
		t.Fatalf("BytesMoved = %v, want one transfer", f.BytesMoved)
	}
}

func TestStageTime(t *testing.T) {
	_, f := testFabric(1e6, LRU)
	ds := Dataset{Name: "a", Bytes: 5e5}
	f.Pin(ds, 2)
	if st := f.StageTime(ds, 2); st != 0 {
		t.Fatalf("local StageTime = %v", st)
	}
	if st := f.StageTime(ds, 0); math.Abs(st-0.52) > 1e-9 {
		t.Fatalf("remote StageTime = %v, want 0.52", st)
	}
	if !math.IsInf(f.StageTime(Dataset{Name: "nope", Bytes: 1}, 0), 1) {
		t.Fatal("missing dataset StageTime != +Inf")
	}
}

func TestLRUEviction(t *testing.T) {
	k, f := testFabric(250, LRU) // fits two 100B datasets plus slack
	a := Dataset{Name: "a", Bytes: 100}
	b := Dataset{Name: "b", Bytes: 100}
	c := Dataset{Name: "c", Bytes: 100}
	for _, ds := range []Dataset{a, b, c} {
		f.Pin(ds, 2)
	}
	f.Stage(a, 0, nil)
	k.Run()
	f.Stage(b, 0, nil)
	k.Run()
	// Touch a strictly later so b is the LRU victim, then stage c.
	k.At(k.Now()+1, func() {
		f.Stage(a, 0, nil)
		f.Stage(c, 0, nil)
	})
	k.Run()
	if !f.Holds(0, "a") || !f.Holds(0, "c") {
		t.Fatal("expected a and c resident")
	}
	if f.Holds(0, "b") {
		t.Fatal("LRU should have evicted b")
	}
	if f.stores[0].Evictions != 1 {
		t.Fatalf("Evictions = %d", f.stores[0].Evictions)
	}
}

func TestLFUEviction(t *testing.T) {
	k, f := testFabric(250, LFU)
	a := Dataset{Name: "a", Bytes: 100}
	b := Dataset{Name: "b", Bytes: 100}
	c := Dataset{Name: "c", Bytes: 100}
	for _, ds := range []Dataset{a, b, c} {
		f.Pin(ds, 2)
	}
	f.Stage(a, 0, nil)
	k.Run()
	f.Stage(b, 0, nil)
	k.Run()
	// a gets two more hits; b stays at freq 1 and should evict.
	f.Stage(a, 0, nil)
	f.Stage(a, 0, nil)
	f.Stage(c, 0, nil)
	k.Run()
	if f.Holds(0, "b") || !f.Holds(0, "a") {
		t.Fatal("LFU should have evicted b, kept a")
	}
}

func TestNoCachePolicy(t *testing.T) {
	k, f := testFabric(1e6, NoCache)
	ds := Dataset{Name: "a", Bytes: 100}
	f.Pin(ds, 2)
	f.Stage(ds, 0, nil)
	k.Run()
	if f.Holds(0, "a") {
		t.Fatal("NoCache retained data")
	}
	f.Stage(ds, 0, nil)
	k.Run()
	if f.stores[0].Misses != 2 {
		t.Fatalf("Misses = %d, want 2", f.stores[0].Misses)
	}
}

func TestOversizeDatasetNotRetained(t *testing.T) {
	k, f := testFabric(100, LRU)
	big := Dataset{Name: "big", Bytes: 1000}
	f.Pin(big, 2)
	done := false
	f.Stage(big, 0, func(bool) { done = true })
	k.Run()
	if !done {
		t.Fatal("oversize stage never completed")
	}
	if f.Holds(0, "big") {
		t.Fatal("oversize dataset retained beyond capacity")
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	k, f := testFabric(150, LRU)
	pinned := Dataset{Name: "pinned", Bytes: 100}
	f.Pin(pinned, 0) // pinned at the edge store itself
	remote := Dataset{Name: "r", Bytes: 100}
	f.Pin(remote, 2)
	f.Stage(remote, 0, nil)
	k.Run()
	if !f.Holds(0, "pinned") {
		t.Fatal("pinned replica evicted")
	}
	if !f.Holds(0, "r") {
		t.Fatal("cached dataset should fit (pinned exempt from budget)")
	}
}

func TestHitRate(t *testing.T) {
	k, f := testFabric(1e6, LRU)
	ds := Dataset{Name: "a", Bytes: 100}
	f.Pin(ds, 2)
	f.Stage(ds, 0, nil)
	k.Run()
	for i := 0; i < 3; i++ {
		f.Stage(ds, 0, nil)
	}
	if hr := f.stores[0].HitRate(); math.Abs(hr-0.75) > 1e-12 {
		t.Fatalf("HitRate = %v, want 0.75", hr)
	}
	if f.stores[1].HitRate() != 0 {
		t.Fatal("unused store HitRate != 0")
	}
}

func TestAddStorePanics(t *testing.T) {
	_, f := testFabric(1e6, LRU)
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative capacity", func() { f.AddStore(9, -1, LRU) }},
		{"duplicate", func() { f.AddStore(0, 1, LRU) }},
		{"pin without store", func() { f.Pin(Dataset{Name: "x", Bytes: 1}, 99) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// Property: cache used bytes never exceed capacity and hit+miss == stages
// per store, under random Zipf access patterns, for every policy.
func TestPropertyCacheInvariants(t *testing.T) {
	f := func(seed uint64, polRaw uint8) bool {
		pol := Policy(polRaw % 3) // LRU, LFU, TwoRandom
		k := sim.NewKernel()
		net := line(k, 2, 0.001, 1e9)
		rng := workload.NewRNG(seed)
		fab := NewFabric(net, rng.Split())
		cache := fab.AddStore(0, 500, pol)
		fab.AddStore(1, 0, NoCache)
		const nds = 20
		sets := make([]Dataset, nds)
		for i := range sets {
			sets[i] = Dataset{Name: string(rune('a' + i)), Bytes: rng.Range(50, 200)}
			fab.Pin(sets[i], 1)
		}
		z := workload.NewZipf(rng.Split(), nds, 0.9)
		const accesses = 200
		done := 0
		for i := 0; i < accesses; i++ {
			at := rng.Range(0, 100)
			ds := sets[z.Next()]
			k.At(at, func() {
				fab.Stage(ds, 0, func(bool) { done++ })
				if cache.used > cache.Capacity+1e-9 {
					panic("cache over capacity")
				}
			})
		}
		k.Run()
		return done == accesses && cache.used <= cache.Capacity+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoRandomEvictionDeterministic: the same seed must pick the same
// 2-random victims on every run. Go randomises map iteration per range,
// so a pool built in map order draws different victims each time.
func TestTwoRandomEvictionDeterministic(t *testing.T) {
	run := func() (string, int64) {
		k := sim.NewKernel()
		net := line(k, 2, 0.001, 1e9)
		rng := workload.NewRNG(7)
		fab := NewFabric(net, rng.Split())
		cache := fab.AddStore(0, 600, TwoRandom)
		fab.AddStore(1, 0, NoCache)
		sets := make([]Dataset, 24)
		for i := range sets {
			sets[i] = Dataset{Name: string(rune('a' + i)), Bytes: 100}
			fab.Pin(sets[i], 1)
		}
		z := workload.NewZipf(rng.Split(), len(sets), 0.8)
		hits := make([]byte, 0, 400)
		for i := 0; i < cap(hits); i++ {
			ds := sets[z.Next()]
			k.At(float64(i), func() {
				fab.Stage(ds, 0, func(hit bool) {
					if hit {
						hits = append(hits, 'h')
					} else {
						hits = append(hits, 'm')
					}
				})
			})
		}
		k.Run()
		return string(hits), cache.Evictions
	}
	wantHits, wantEv := run()
	if wantEv == 0 {
		t.Fatal("workload never evicted; test is vacuous")
	}
	for i := 0; i < 5; i++ {
		if hits, ev := run(); hits != wantHits || ev != wantEv {
			t.Fatalf("run %d: evictions %d, want %d; hit sequence differs: %v", i, ev, wantEv, hits != wantHits)
		}
	}
}
