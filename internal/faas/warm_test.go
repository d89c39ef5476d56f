package faas

import "testing"

// TestWarmPoolRule drives the one warm-pool rule with explicit times in
// seconds: fresh containers are reused, a container idle exactly the TTL
// is still warm and one idle a tick longer is cold, a TTL of 0 never
// expires, the newest container goes first, and at most max idle
// containers are kept.
func TestWarmPoolRule(t *testing.T) {
	const tick = 1.0 / 1024 // exact in binary, so the edges are exact
	p := NewWarmPool(10, 2)
	if p.Take(0) {
		t.Fatal("an empty pool gave a warm container")
	}
	p.Put(1)
	if !p.Take(2) {
		t.Fatal("a fresh container was not taken")
	}
	if p.Take(2) {
		t.Fatal("a taken container was taken again")
	}

	p.Put(5)
	if !p.Take(15) {
		t.Fatal("a container idle exactly the TTL was cold")
	}
	p.Put(5)
	if p.Take(15 + tick) {
		t.Fatal("a container idle a tick past the TTL was warm")
	}
	if len(p.idle) != 0 {
		t.Fatalf("the expired container stayed: %v", p.idle)
	}

	forever := NewWarmPool(0, 1)
	forever.Put(0)
	if !forever.Take(1e12) {
		t.Fatal("a TTL of 0 expired a container")
	}

	// Newest first: the container idle since 8 is taken before the one
	// idle since 1, which has expired by 12 and is dropped by the next take.
	p.Put(1)
	p.Put(8)
	if !p.Take(12) || len(p.idle) != 1 || p.idle[0] != 1 {
		t.Fatalf("take did not reuse the newest container: %v left", p.idle)
	}
	if p.Take(12) || len(p.idle) != 0 {
		t.Fatalf("the expired oldest container was reused: %v left", p.idle)
	}

	// At most max idle containers.
	for i := 0; i < 5; i++ {
		p.Put(20)
	}
	if len(p.idle) != 2 {
		t.Fatalf("pool of bound 2 holds %d idle containers", len(p.idle))
	}
}
