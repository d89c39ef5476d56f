package federation

// Micro-benchmarks for the router's per-invocation decision path: the
// policy's Order and the registry's Routable. scripts/check.sh runs one
// iteration of each; measure with
//
//	go test -run '^$' -bench 'Order|Routable' -benchmem ./internal/federation

import (
	"fmt"
	"testing"
	"time"
)

var orderSink []string

func benchOrder(b *testing.B, p Policy, members, size int) {
	ms := fleet(members)
	payload := make([]byte, size)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderSink = p.Order("echo", counterPayload(payload, uint64(i)), ms)
	}
}

func BenchmarkHashPolicyOrder(b *testing.B) {
	for _, members := range []int{3, 64, 512} {
		for _, size := range []struct {
			name  string
			bytes int
		}{{"64B", 64}, {"64KiB", 64 << 10}} {
			b.Run(fmt.Sprintf("%dmembers/%s", members, size.name), func(b *testing.B) {
				benchOrder(b, HashPolicy{}, members, size.bytes)
			})
		}
	}
}

func BenchmarkLeastLoadedOrder(b *testing.B) {
	b.Run("64members", func(b *testing.B) { benchOrder(b, LeastLoadedPolicy{}, 64, 64) })
}

// BenchmarkRegistryRoutable is the steady state of a routed invoke's
// membership read, on the real clock. The loop runs with the registry
// lock held: it would deadlock if the cached path took it.
func BenchmarkRegistryRoutable(b *testing.B) {
	r := NewRegistry(Config{HeartbeatInterval: time.Hour})
	for _, m := range fleet(64) {
		if _, err := r.Register(m.MemberInfo); err != nil {
			b.Fatal(err)
		}
	}
	r.Routable() // builds the view
	r.mu.Lock()
	defer r.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(r.Routable())
	}
	if n != 64*b.N {
		b.Fatalf("routable members went missing: %d over %d calls", n, b.N)
	}
}
