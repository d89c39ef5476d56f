package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"continuum/internal/federation"
	"continuum/internal/wire"
)

// probeDur is how long each micro-probe loops; long enough that the
// per-call figure is an average over tens of thousands of calls.
const probeDur = 50 * time.Millisecond

// nsPerCall runs fn in batches until probeDur has passed and returns
// the mean nanoseconds per call.
func nsPerCall(fn func()) float64 {
	const batch = 64
	calls := 0
	start := time.Now()
	for time.Since(start) < probeDur {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	return float64(time.Since(start)) / float64(calls)
}

// liveProbes times the codec on the workloads' own requests and the
// routing policies over a small and a large membership, outside any
// connection: the per-message and per-byte costs a wire or federation
// change should move.
func liveProbes(seed uint64, res *result) {
	for _, sz := range []struct {
		suffix string
		size   int
	}{{"64", 64}, {"64k", 64 << 10}} {
		req := &wire.Request{Op: wire.OpInvoke, ID: "c1-123456", Accept: wire.AcceptBinary, Fn: "echo", Payload: seededPayload(seed, sz.size)}
		var buf bytes.Buffer
		res.metrics["wire.encode_ns_"+sz.suffix] = nsPerCall(func() {
			buf.Reset()
			if err := wire.WriteFrameCodec(&buf, req, wire.CodecBinary); err != nil {
				res.problem("encode probe: %v", err)
			}
		})
		frame := append([]byte(nil), buf.Bytes()...)
		res.metrics["wire.frame_bytes_"+sz.suffix] = float64(len(frame))
		var got wire.Request
		res.metrics["wire.decode_ns_"+sz.suffix] = nsPerCall(func() {
			got = wire.Request{}
			if _, err := wire.ReadFrameCodec(bytes.NewReader(frame), &got); err != nil {
				res.problem("decode probe: %v", err)
			}
		})
		if !bytes.Equal(got.Payload, req.Payload) || got.Fn != req.Fn {
			res.problem("codec probe: decoded request differs from the encoded one")
		}
	}

	payload := seededPayload(seed, 64)
	order := func(p federation.Policy, members []wire.MemberStatus) float64 {
		var n uint64
		return nsPerCall(func() {
			n++
			binary.BigEndian.PutUint64(payload, n)
			if got := p.Order("echo", payload, members); len(got) != len(members) {
				res.problem("policy probe: %d of %d members ordered", len(got), len(members))
			}
		})
	}
	res.metrics["federation.order_ns_3members"] = order(federation.HashPolicy{}, syntheticMembers(3))
	res.metrics["federation.order_ns_64members"] = order(federation.HashPolicy{}, syntheticMembers(64))
	res.metrics["federation.order_ll_ns_64members"] = order(federation.LeastLoadedPolicy{}, syntheticMembers(64))
}

func syntheticMembers(n int) []wire.MemberStatus {
	ms := make([]wire.MemberStatus, n)
	for i := range ms {
		ms[i] = wire.MemberStatus{
			MemberInfo: wire.MemberInfo{
				Name: fmt.Sprintf("m%02d", i), Addr: fmt.Sprintf("10.0.%d.%d:9000", i/250, i%250+1),
				Capacity: 8, SlotLimit: 8, QueueDepth: i % 5, InFlight: int64(i % 3),
			},
			State: federation.StateAlive,
		}
	}
	return ms
}
