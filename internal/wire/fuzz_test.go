package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary frame bodies to the one decoder, as a
// request and as a response, both length-prefixed and as raw frames.
// Decoding never panics; whatever decodes
// re-encodes without error; and a second decode→encode pass reproduces
// the first encoding byte for byte. Bytes are compared rather than
// structs because the JSON sections normalise empty lists to nil. The
// seed corpus in testdata/fuzz/FuzzReadFrame replays under plain
// `go test`; explore further with
//
//	go test -run '^$' -fuzz FuzzReadFrame -fuzztime 60s ./internal/wire
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, fresh := range []func() any{
			func() any { return new(Request) },
			func() any { return new(Response) },
		} {
			// As a whole frame, so the length prefix is fuzzed too.
			ReadFrameCodec(bytes.NewReader(body), fresh())
			v := fresh()
			if _, err := ReadFrameCodec(bytes.NewReader(frameOf(body)), v); err != nil {
				continue
			}
			first, err := appendFrame(nil, v)
			if err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", v, err)
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
