package wire

// Wire hot-path benchmarks:
//
//	go test -run '^$' -bench BenchmarkWire -benchmem ./internal/wire
//
// End-to-end figures come from the benchmark module (BENCHMARK.json).

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"continuum/internal/faas"
)

// benchServer starts a loopback echo server sized so the endpoint never
// queues during a parallel benchmark.
func benchServer(b *testing.B) string {
	b.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "bench", Capacity: 256, WarmTTL: time.Minute,
	}, reg)
	srv := &Server{Invoker: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}, Workers: 256}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(lis)
	b.Cleanup(srv.Close)
	return lis.Addr().String()
}

func benchClient(b *testing.B, addr string) *Client {
	b.Helper()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	// Prime the connection and the warm container outside the timer.
	if _, err := c.Invoke("echo", []byte("warm")); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkWireInvoke is the serial round-trip floor: one call in
// flight at a time over one connection.
func BenchmarkWireInvoke(b *testing.B) {
	c := benchClient(b, benchServer(b))
	payload := bytes.Repeat([]byte{'x'}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Invoke("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireInvokeParallel is the multiplexing payoff: ~64
// concurrent callers share ONE connection. Compare ops/sec against
// BenchmarkWireInvoke for the pipelining speedup.
func BenchmarkWireInvokeParallel(b *testing.B) {
	c := benchClient(b, benchServer(b))
	payload := bytes.Repeat([]byte{'x'}, 256)
	// RunParallel spawns GOMAXPROCS*parallelism goroutines; aim for ~64
	// in-flight calls regardless of core count.
	par := 64 / runtime.GOMAXPROCS(0)
	if par < 1 {
		par = 1
	}
	b.SetParallelism(par)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Invoke("echo", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireInvokeConns4 is the direct-small shape: 4 connections,
// one closed-loop caller each, 64 B payloads. Every call is a lone frame
// on its connection, so it measures the per-hop write and wake-up cost
// rather than batching.
func BenchmarkWireInvokeConns4(b *testing.B) {
	addr := benchServer(b)
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = benchClient(b, addr)
	}
	payload := bytes.Repeat([]byte{'x'}, 64)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.Invoke("echo", payload); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkWireCodec isolates encode+decode cost for a 64 KiB payload.
func BenchmarkWireCodec(b *testing.B) {
	payload := bytes.Repeat([]byte{0xAB}, 64<<10)
	req := &Request{Op: OpInvoke, ID: "bench-1", Fn: "echo", Payload: payload}
	var buf bytes.Buffer
	if err := WriteFrameCodec(&buf, req, CodecBinary); err != nil {
		b.Fatal(err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrameCodec(&buf, req, CodecBinary); err != nil {
			b.Fatal(err)
		}
		out := new(Request)
		if _, err := ReadFrameCodec(bytes.NewReader(frame), out); err != nil {
			b.Fatal(err)
		}
	}
}
