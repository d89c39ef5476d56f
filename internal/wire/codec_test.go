package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"continuum/internal/trace"
)

// fullRequest returns a Request with every encoded field set to a
// non-zero value. requireAllFieldsSet keeps it honest when fields are
// added.
func fullRequest() *Request {
	return &Request{
		Op:      OpInvoke,
		ID:      "req-1",
		Fn:      "echo",
		Payload: []byte{0x00, 0xC6, '{', 0xFF}, // magic and JSON bytes inside a payload are just bytes
		Batch:   [][]byte{{1}, {}, {2, 3}},
		TraceID: "0123456789abcdef",
		SpanID:  "89abcdef",
		// Negative on purpose: the binary codec carries priority as a
		// signed varint.
		Priority: -1,
		Member: &MemberInfo{
			Name: "ep0", Addr: "127.0.0.1:9000", Capacity: 8,
			Functions: []string{"echo"}, Generation: 3,
			QueueDepth: 2, InFlight: 1, SlotLimit: 4,
			Cordoned: true, Draining: true,
		},
	}
}

// fullResponse returns a Response with every field set.
func fullResponse() *Response {
	return &Response{
		OK:           true,
		ID:           "req-1",
		Error:        "partial failure",
		Retryable:    true,
		RetryAfterMS: 40,
		Payload:      bytes.Repeat([]byte{0xC5}, 64),
		Batch:        [][]byte{{9, 8}, {7}},
		Names:        []string{"echo", "upper"},
		Stats: []EndpointStats{{
			Name: "ep0", Capacity: 4, Running: 1, Invocations: 10, ColdStarts: 2, WarmHits: 8,
		}},
		Top: []FnMetrics{{
			Endpoint: "ep0", Fn: "echo", Count: 10,
			P50: 0.001, P90: 0.002, P99: 0.003, ColdStarts: 2, WarmHits: 8,
		}},
		Spans: []trace.Span{{
			TraceID: "0123456789abcdef", SpanID: "89abcdef", Parent: "01234567",
			Service: "ep0", Name: "exec echo", Kind: trace.KindExec, Attempt: 1,
			Start: 100, End: 200, Err: "boom",
			Attrs: map[string]string{"container": "cold"},
		}},
		Members: []MemberStatus{{
			MemberInfo: MemberInfo{
				Name: "ep0", Addr: "127.0.0.1:9000", Capacity: 8,
				Functions: []string{"echo"}, Generation: 3,
				QueueDepth: 2, InFlight: 1, SlotLimit: 4,
				Cordoned: true, Draining: true,
			},
			State: "alive", AgeMS: 12,
		}},
		HeartbeatMS: 2000,
		Generation:  3,
	}
}

// requireAllFieldsSet fails if any field of v is its zero value — the
// guard that makes the round-trip test prove EVERY protocol field
// survives the codec, including fields added after this test was
// written (adding a field without extending the fixtures fails here).
// Request.Accept is skipped by name: it is deprecated and not encoded.
func requireAllFieldsSet(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Type() == reflect.TypeOf(Request{}) && rv.Type().Field(i).Name == "Accept" {
			continue
		}
		if rv.Field(i).IsZero() {
			t.Fatalf("%s fixture leaves field %s at its zero value; extend the fixture so the codec round-trip covers it",
				rv.Type().Name(), rv.Type().Field(i).Name)
		}
	}
}

// TestCodecRoundTripAllFields proves the codec round-trips every
// Request and Response field bit for bit.
func TestCodecRoundTripAllFields(t *testing.T) {
	t.Run("bin", func(t *testing.T) {
		req := fullRequest()
		requireAllFieldsSet(t, req)
		var buf bytes.Buffer
		if err := WriteFrameCodec(&buf, req, CodecBinary); err != nil {
			t.Fatal(err)
		}
		gotReq := new(Request)
		if _, err := ReadFrameCodec(&buf, gotReq); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, gotReq) {
			t.Fatalf("request round trip mismatch:\nin:  %+v\nout: %+v", req, gotReq)
		}

		resp := fullResponse()
		requireAllFieldsSet(t, resp)
		buf.Reset()
		if err := WriteFrameCodec(&buf, resp, CodecBinary); err != nil {
			t.Fatal(err)
		}
		gotResp := new(Response)
		if _, err := ReadFrameCodec(&buf, gotResp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp, gotResp) {
			t.Fatalf("response round trip mismatch:\nin:  %+v\nout: %+v", resp, gotResp)
		}
	})
}

// TestBinaryCodecPreservesNilVsEmpty: the blob sections distinguish a
// nil payload/batch from an empty one, which JSON-with-omitempty cannot.
func TestBinaryCodecPreservesNilVsEmpty(t *testing.T) {
	cases := []Request{
		{Op: OpInvoke, ID: "a", Payload: nil, Batch: nil},
		{Op: OpInvoke, ID: "b", Payload: []byte{}, Batch: [][]byte{}},
		{Op: OpInvoke, ID: "c", Payload: []byte{}, Batch: [][]byte{nil, {}}},
	}
	for _, in := range cases {
		var buf bytes.Buffer
		if err := WriteFrameCodec(&buf, &in, CodecBinary); err != nil {
			t.Fatal(err)
		}
		out := new(Request)
		if _, err := ReadFrameCodec(&buf, out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&in, out) {
			t.Fatalf("nil/empty not preserved:\nin:  %#v\nout: %#v", in, *out)
		}
	}
}

// TestBinaryCodecSmallerForLargePayloads is the point of the codec: raw
// payload bytes instead of base64-in-JSON.
func TestBinaryCodecSmallerForLargePayloads(t *testing.T) {
	req := &Request{Op: OpInvoke, ID: "big", Fn: "echo", Payload: bytes.Repeat([]byte{0xAB}, 64<<10)}
	var bin bytes.Buffer
	if err := WriteFrameCodec(&bin, req, CodecBinary); err != nil {
		t.Fatal(err)
	}
	if b64 := base64.StdEncoding.EncodedLen(len(req.Payload)); bin.Len() >= b64 {
		t.Fatalf("binary frame %d B not smaller than the payload's base64 (%d B)", bin.Len(), b64)
	}
	// Base64 inflates 64 KiB to ~85 KiB; binary should be within ~1% of raw.
	if bin.Len() > 65<<10 {
		t.Fatalf("binary frame %d B for a 64 KiB payload", bin.Len())
	}
}

// countingWriter tallies Write calls to prove frames are coalesced.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameSingleWrite: header and body must go out in ONE Write,
// so a frame is never torn across a deadline and a small call costs one
// syscall.
func TestWriteFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrameCodec(&w, fullRequest(), CodecBinary); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("frame issued %d writes, want 1", w.writes)
	}
	// And the coalesced frame must still parse.
	out := new(Request)
	if _, err := ReadFrameCodec(&w.Buffer, out); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFrameRejectsNonFrameTypes: a frame is a *Request or a
// *Response in the one codec; any other value or codec is an error, and
// nothing reaches the writer.
func TestWriteFrameRejectsNonFrameTypes(t *testing.T) {
	var w countingWriter
	if err := WriteFrameCodec(&w, map[string]string{"k": "v"}, CodecBinary); err == nil {
		t.Fatal("a map encoded as a frame")
	}
	if err := WriteFrameCodec(&w, fullRequest(), Codec(0)); err == nil {
		t.Fatal("a request encoded under an unknown codec")
	}
	if w.writes != 0 {
		t.Fatalf("rejected frames issued %d writes", w.writes)
	}
	var buf bytes.Buffer
	if err := WriteFrameCodec(&buf, fullRequest(), CodecBinary); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	if _, err := ReadFrameCodec(&buf, &out); err == nil {
		t.Fatal("a request frame decoded into a map")
	}
}

// TestBinaryFrameTooLarge: the size cap applies to binary frames too.
func TestBinaryFrameTooLarge(t *testing.T) {
	req := &Request{Op: OpInvoke, Payload: make([]byte, MaxFrame+1)}
	var buf bytes.Buffer
	if err := WriteFrameCodec(&buf, req, CodecBinary); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestBinaryDecodeTruncated: every field is always present, so every
// strict prefix of a full request or response body is rejected, and so
// is a body with bytes after its last field.
func TestBinaryDecodeTruncated(t *testing.T) {
	for _, tc := range []struct {
		in  any
		out func() any
	}{
		{fullRequest(), func() any { return new(Request) }},
		{fullResponse(), func() any { return new(Response) }},
	} {
		var buf bytes.Buffer
		if err := WriteFrameCodec(&buf, tc.in, CodecBinary); err != nil {
			t.Fatal(err)
		}
		whole := buf.Bytes()
		for cut := 4; cut < len(whole); cut++ {
			// Rewrite the length prefix to match the truncated body, so the
			// decoder's own bounds checks are exercised, not just short reads.
			trunc := append([]byte(nil), whole[:cut]...)
			binary.BigEndian.PutUint32(trunc[:4], uint32(cut-4))
			if _, err := ReadFrameCodec(bytes.NewReader(trunc), tc.out()); err == nil {
				t.Fatalf("%T body cut at %d of %d bytes accepted", tc.in, cut-4, len(whole)-4)
			}
		}
		long := append(append([]byte(nil), whole...), 0)
		binary.BigEndian.PutUint32(long[:4], uint32(len(long)-4))
		if _, err := ReadFrameCodec(bytes.NewReader(long), tc.out()); err == nil {
			t.Fatalf("%T body with a trailing byte accepted", tc.in)
		}
	}
}

// frameReaders are the two ways a frame is read: ReadFrameCodec on any
// io.Reader, and the buffered connReader every connection reads
// through. open returns a reader over r that reads one frame per call.
var frameReaders = []struct {
	name string
	open func(r io.Reader) func(v any) error
}{
	{"ReadFrameCodec", func(r io.Reader) func(any) error {
		return func(v any) error { _, err := ReadFrameCodec(r, v); return err }
	}},
	{"connReader", func(r io.Reader) func(any) error {
		cr := newConnReader(r)
		return func(v any) error { _, _, err := cr.read(v); return err }
	}},
}

// TestReadFrameAllocatesAsBytesArrive: a length prefix is a claim, not
// data. A peer that announces MaxFrame and then hangs up must not make
// either reader allocate the announced 16 MiB, while a 64 KiB frame
// still decodes with one allocation about its size.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Op: OpInvoke, ID: "big", Fn: "echo", Payload: bytes.Repeat([]byte{0xAB}, 64<<10)}
	if err := WriteFrameCodec(&buf, req, CodecBinary); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for _, fr := range frameReaders {
		t.Run(fr.name, func(t *testing.T) {
			client, server := net.Pipe()
			go func() {
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], MaxFrame)
				client.Write(hdr[:])
				client.Close()
			}()
			read := fr.open(server)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := read(new(Request))
			runtime.ReadMemStats(&m1)
			server.Close()
			if err == nil {
				t.Fatal("a frame with no body decoded")
			}
			if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("an announced-but-unsent %d-byte frame allocated %d bytes", MaxFrame, grew)
			}

			// The decoded payload points into a buffer of its own (the
			// whole body, or just the payload on a connection), and
			// nothing else of the frame's size is allocated. TotalAlloc
			// is process-wide, so the GC stays off while it is read: a
			// collection would empty the frame pool mid-round. Under
			// -race, sync.Pool also drops a quarter of its Puts at
			// random, so the best of a few rounds is what the reader
			// itself allocates. Without -race every round reads the same.
			const reads, rounds = 100, 5
			client, server = net.Pipe()
			defer server.Close()
			go func() {
				defer client.Close()
				for i := 0; i < reads*rounds; i++ {
					if _, err := client.Write(frame); err != nil {
						return
					}
				}
			}()
			read = fr.open(server)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			perRead := uint64(math.MaxUint64)
			for r := 0; r < rounds; r++ {
				runtime.ReadMemStats(&m0)
				for i := 0; i < reads; i++ {
					got := new(Request)
					if err := read(got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Payload, req.Payload) {
						t.Fatalf("read %d: payload differs", i)
					}
				}
				runtime.ReadMemStats(&m1)
				perRead = min(perRead, (m1.TotalAlloc-m0.TotalAlloc)/reads)
			}
			if perRead > 2*64<<10 {
				t.Fatalf("a 64 KiB frame read allocated %d bytes", perRead)
			}
		})
	}
}
