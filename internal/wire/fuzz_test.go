package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary frame bodies to the one decoder, as a
// request and as a response, both length-prefixed and as raw frames,
// through ReadFrameCodec and through the connection reader (which reads
// a large body's payload on its own, see readSplit). Decoding never
// panics; both readers accept the same frames and decode them to the
// same encoding; whatever decodes re-encodes without error; and a
// second decode→encode pass reproduces the first encoding byte for
// byte. Bytes are compared rather than structs because the JSON
// sections normalise empty lists to nil. The seed corpus in
// testdata/fuzz/FuzzReadFrame replays under plain `go test`, with the
// seeds added here: a request over 64 KiB and a response with a batch.
// Explore further with
//
//	go test -run '^$' -fuzz FuzzReadFrame -fuzztime 60s -fuzzminimizetime 2s ./internal/wire
//
// (without the minimize bound, shrinking an interesting input grown from
// the 64 KiB seed stalls the run for minutes).
func FuzzReadFrame(f *testing.F) {
	for _, v := range []any{
		&Request{Op: OpInvoke, ID: "big", Fn: "echo", Payload: bytes.Repeat([]byte{0xAB}, 64<<10+1), Priority: 1},
		&Response{OK: true, ID: "b", Batch: [][]byte{{1}, nil, {}, bytes.Repeat([]byte{2}, 5000)}},
	} {
		frame, err := appendFrame(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, fresh := range []func() any{
			func() any { return new(Request) },
			func() any { return new(Response) },
		} {
			// As a whole frame, so the length prefix is fuzzed too.
			ReadFrameCodec(bytes.NewReader(body), fresh())
			newConnReader(bytes.NewReader(body)).read(fresh())

			v, onConn := fresh(), fresh()
			_, err := ReadFrameCodec(bytes.NewReader(frameOf(body)), v)
			_, _, connErr := newConnReader(bytes.NewReader(frameOf(body))).read(onConn)
			if (err == nil) != (connErr == nil) {
				t.Fatalf("%T: ReadFrameCodec says %v, the connection reader %v", v, err, connErr)
			}
			if err != nil {
				continue
			}
			first, err := appendFrame(nil, v)
			if err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", v, err)
			}
			if viaConn, err := appendFrame(nil, onConn); err != nil || !bytes.Equal(first, viaConn) {
				t.Fatalf("%T decodes differently through the connection reader (%v)", v, err)
			}
			again := fresh()
			if _, err := ReadFrameCodec(bytes.NewReader(first), again); err != nil {
				t.Fatalf("re-encoded %T does not decode: %v", v, err)
			}
			second, err := appendFrame(nil, again)
			if err != nil {
				t.Fatalf("second %T pass does not encode: %v", v, err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("%T re-encoding is not stable:\nfirst:  % x\nsecond: % x", v, first, second)
			}
		}
	})
}
