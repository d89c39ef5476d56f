package wire

// Frame codec: every frame on the wire is a 4-byte big-endian length
// followed by one binary body. Hot fields are encoded natively — JSON
// never runs on the invoke hot path:
//
//	[0]      0xC6 magic — the protocol version
//	[1]      kind: 0x01 request, 0x02 response
//	Request  str Op, str ID, str Fn, blob Payload, batch, str TraceID,
//	         str SpanID, varint Priority, uvarint length + JSON-encoded
//	         MemberInfo (length 0 = no member)
//	Response [2] flags (bit0 OK, bit1 Retryable, bit2 extension),
//	         str ID, str Error, blob Payload, batch, then — only when the
//	         extension bit is set — a uvarint length and a JSON object
//	         carrying the rare list/stats/top/spans/retry-after/federation
//	         fields.
//
// where str is uvarint length + bytes, blob is the same but with
// uvarint 0 meaning nil and length+1 otherwise (nil and empty payloads
// survive a round trip distinctly), and batch is uvarint 0 = nil or
// count+1 followed by one blob per item. Every field is always present
// and a body must be consumed exactly, so any strict prefix of a frame,
// and any frame with trailing bytes, fails to decode. A peer speaking
// another protocol version fails on its first frame's magic byte rather
// than being mis-decoded. A protocol field added later must be added
// here too; the codec round-trip test's all-fields guard fails until it
// is.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"continuum/internal/trace"
)

// Codec identifies a frame body encoding. CodecBinary is the only one;
// WriteFrameCodec rejects any other value.
type Codec uint8

// CodecBinary is the protocol's frame encoding.
const CodecBinary Codec = 1

// binMagic starts every frame body. It doubles as the protocol version:
// a frame from a peer built against another layout is rejected on this
// byte instead of being decoded field by field into garbage.
const binMagic = 0xC6

// AcceptBinary was the Request.Accept value that advertised the binary
// codec.
//
// Deprecated: every frame is binary. It stays declared only because the
// benchmark's codec probe still sets it; it is removed together with
// that probe line.
const AcceptBinary = "bin"

// maxPooledBuf caps the capacity of buffers returned to the frame pool,
// so one oversized frame cannot pin megabytes for the process lifetime.
const maxPooledBuf = 1 << 20

// framePool recycles the buffers frames are encoded into and small
// frames are read into: a steady stream of small invokes allocates no
// frame buffers at all.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return framePool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	framePool.Put(bp)
}

// WriteFrameCodec writes v, a *Request or *Response, as one
// length-prefixed frame. codec must be CodecBinary. The header and body
// are issued as a single Write from a pooled buffer, so a frame is never
// torn across a write deadline and a small call costs one syscall.
func WriteFrameCodec(w io.Writer, v any, codec Codec) error {
	if codec != CodecBinary {
		return fmt.Errorf("wire: unknown codec %d", codec)
	}
	bp := getBuf()
	frame, err := appendFrame((*bp)[:0], v)
	if err == nil {
		_, err = w.Write(frame)
	}
	*bp = frame
	putBuf(bp)
	return err
}

// appendFrame appends one complete frame — length prefix and encoded
// body — to dst. This is the shared encode path: WriteFrameCodec issues
// the result as one Write, and groupWriter writes it inline or in a
// batch with the frames of concurrent writers.
func appendFrame(dst []byte, v any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix placeholder
	dst, err := appendBody(dst, v)
	if err != nil {
		return dst[:start], err
	}
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(n))
	return dst, nil
}

// ReadFrameCodec reads one frame into v, a *Request or *Response. The
// returned Codec is always CodecBinary. The decoded payload and batch
// items belong to the caller.
func ReadFrameCodec(r io.Reader, v any) (Codec, error) {
	_, _, err := readFrame(r, v, nil)
	return CodecBinary, err
}

// connReadBuf sizes the buffered reader of every connection. It serves
// frame headers and small frames, so a pipelined burst of small frames
// still costs one read; a larger body is read past it (see readFrame).
const connReadBuf = 4 << 10

// connReader reads one connection's frames.
type connReader struct {
	br *bufio.Reader
	// spares hold buffers that a relay gave back after forwarding what
	// was read into them (see relay.go), ready for this connection's
	// next large frames. Two, so that a second call in flight on the
	// connection still finds one. Only a relay gives buffers back, so
	// only a relay's connections ever hold any.
	spares [2]atomic.Pointer[frameBody]
}

func newConnReader(conn io.Reader) *connReader {
	return &connReader{br: bufio.NewReaderSize(conn, connReadBuf)}
}

// read reads one frame into v; see readFrame.
func (cr *connReader) read(v any) (int64, *frameBody, error) {
	return readFrame(cr.br, v, cr)
}

// frameBody is the buffer a large frame was read into: its whole body,
// which its payload and batch items point into, or just its payload
// (see readSplit).
type frameBody struct {
	buf  []byte
	home *connReader // the reader recycle gives it back to, nil = none
}

// recycle gives the buffer back to the connection it was read on, for
// that connection's next large frame. The caller guarantees nothing
// reads it any more. Nil-safe.
func (fb *frameBody) recycle() {
	if fb == nil || fb.home == nil || cap(fb.buf) > maxPooledBuf {
		return
	}
	for i := range fb.home.spares {
		if fb.home.spares[i].CompareAndSwap(nil, fb) {
			return
		}
	}
}

// readFrame reads one frame into v and returns its wire size (header
// and body), so per-request byte accounting stays exact behind a
// buffered reader. A body of at most connReadBuf bytes is read into a
// pooled buffer, and its payload and batch items are copied out of it.
// A larger body is read past the buffered reader, straight from the
// connection once its few buffered bytes are used, into a buffer of its
// own: home's spare when one fits, else a fresh one. Read through a
// connection (home set), a body that is mostly payload keeps only the
// payload in that buffer (see readSplit); any other large body is kept
// whole, and its payload and batch items point into it. The buffer is
// returned so a relay can recycle it; whoever does not recycle it owns
// it.
func readFrame(r io.Reader, v any, home *connReader) (int64, *frameBody, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if n <= connReadBuf {
		bp := getBuf()
		defer putBuf(bp)
		body, err := readBody(r, (*bp)[:0], n)
		*bp = body
		if err != nil {
			return 0, nil, err
		}
		return int64(4 + n), nil, decodeBody(body, v, false)
	}
	if home != nil {
		if fb, split, err := home.readSplit(n, v); split {
			if err != nil {
				return 0, nil, err
			}
			return int64(4 + n), fb, nil
		}
	}
	fb := getBody(n, home)
	body, err := readBody(r, fb.buf[:0], n)
	if err != nil {
		return 0, nil, err
	}
	fb.buf = body
	if err := decodeBody(body, v, true); err != nil {
		return 0, nil, err
	}
	return int64(4 + n), fb, nil
}

// readSplit reads an n-byte body (n > connReadBuf) whose fields other
// than the payload take at most connReadBuf bytes, as a large invoke's
// and its answer's do. The payload goes straight into a buffer of its
// own, exactly its size: a 64 KiB payload costs 64 KiB, where the whole
// body would round up to a 72 KiB allocation. The fields around it go
// through a pooled buffer, in which a nil payload stands in for it
// while they decode. split is false, with nothing consumed, for any
// other body.
func (cr *connReader) readSplit(n int, v any) (fb *frameBody, split bool, err error) {
	head, err := cr.br.Peek(connReadBuf)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		return nil, true, err
	}
	lenAt, dataAt, size, ok := payloadAt(head, v)
	if !ok || size < n-connReadBuf || dataAt+size > n {
		return nil, false, nil
	}
	bp := getBuf()
	defer putBuf(bp)
	rest := append(append((*bp)[:0], head[:lenAt]...), 0) // the nil stand-in
	cr.br.Discard(dataAt)
	fb = getBody(size, cr)
	if fb.buf, err = readBody(cr.br, fb.buf[:0], size); err != nil {
		return nil, true, err
	}
	rest, err = readBody(cr.br, rest, len(rest)+n-dataAt-size)
	*bp = rest
	if err == nil {
		err = decodeBody(rest, v, false)
	}
	if err != nil {
		return nil, true, err
	}
	p := fb.buf[:size:size]
	switch t := v.(type) {
	case *Request:
		t.Payload = p
	case *Response:
		t.Payload = p
	}
	return fb, true, nil
}

// payloadAt locates the payload in the first bytes b of a body of v's
// kind: where its length starts, where its bytes start, and how many
// there are. ok is false when the body is of another kind, b ends
// before the length, or the payload is nil.
func payloadAt(b []byte, v any) (lenAt, dataAt, size int, ok bool) {
	if len(b) < 3 || b[0] != binMagic {
		return 0, 0, 0, false
	}
	var rest []byte
	var strs int
	switch v.(type) {
	case *Request:
		rest, strs = b[2:], 3 // op, id, fn
		ok = b[1] == binKindRequest
	case *Response:
		rest, strs = b[3:], 2 // flags, then id, error
		ok = b[1] == binKindResponse
	}
	for ; ok && strs > 0; strs-- {
		var err error
		_, rest, err = takeStrBytes(rest)
		ok = err == nil
	}
	if !ok {
		return 0, 0, 0, false
	}
	lenAt = len(b) - len(rest)
	m, k := binary.Uvarint(rest)
	if k <= 0 || m == 0 || m-1 > MaxFrame {
		return 0, 0, 0, false
	}
	return lenAt, lenAt + k, int(m - 1), true
}

// readBody reads exactly n bytes onto buf. The buffer grows only as
// bytes arrive, at most doubling what has been received, so a length
// prefix a peer announces but never sends costs nothing beyond the
// buffer it started with (see getBody). A frame that fits the buffer is
// one read.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(cap(buf), 4096)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// bodyFirst caps the first allocation for a large body: a length prefix
// buys at most this much before its bytes arrive.
const bodyFirst = 128 << 10

// getBody returns an empty buffer for n bytes: home's spare when it
// fits without wasting more than n bytes, else a fresh one of at most
// bodyFirst bytes that readBody grows as the bytes arrive.
func getBody(n int, home *connReader) *frameBody {
	if home != nil {
		for i := range home.spares {
			if fb := home.spares[i].Swap(nil); fb != nil && n <= cap(fb.buf) && cap(fb.buf) <= 2*n {
				return fb
			}
		}
	}
	return &frameBody{buf: make([]byte, 0, min(n, bodyFirst)), home: home}
}

// Binary body kinds (second byte, after the magic).
const (
	binKindRequest  = 0x01
	binKindResponse = 0x02
)

// Response flag bits.
const (
	binFlagOK        = 1 << 0
	binFlagRetryable = 1 << 1
	binFlagExt       = 1 << 2
)

// respExt carries the rare Response fields (list/stats/top/trace
// results) as a JSON extension section, keeping struct-heavy encoding
// off the invoke hot path.
type respExt struct {
	Names        []string        `json:"names,omitempty"`
	Stats        []EndpointStats `json:"stats,omitempty"`
	Top          []FnMetrics     `json:"top,omitempty"`
	Spans        []trace.Span    `json:"spans,omitempty"`
	RetryAfterMS int64           `json:"retry_after_ms,omitempty"`
	Members      []MemberStatus  `json:"members,omitempty"`
	HeartbeatMS  int64           `json:"heartbeat_ms,omitempty"`
	Generation   int64           `json:"generation,omitempty"`
}

// appendBody encodes v (a *Request or *Response) onto buf.
func appendBody(buf []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case *Request:
		buf = append(buf, binMagic, binKindRequest)
		buf = appendStr(buf, string(t.Op))
		buf = appendStr(buf, t.ID)
		buf = appendStr(buf, t.Fn)
		buf = appendBlob(buf, t.Payload)
		buf = appendBatch(buf, t.Batch)
		buf = appendStr(buf, t.TraceID)
		buf = appendStr(buf, t.SpanID)
		buf = binary.AppendVarint(buf, int64(t.Priority))
		// The member body is a rare, tiny control frame, so reflection
		// there costs nothing the invoke hot path ever sees.
		var mb []byte
		if t.Member != nil {
			var err error
			if mb, err = json.Marshal(t.Member); err != nil {
				return buf, fmt.Errorf("wire: marshal member: %w", err)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(mb)))
		return append(buf, mb...), nil
	case *Response:
		var flags byte
		if t.OK {
			flags |= binFlagOK
		}
		if t.Retryable {
			flags |= binFlagRetryable
		}
		// Gate on lengths, not nil-ness: empty lists vanish from the JSON
		// anyway, and an extension that decodes to nothing must not be
		// sent, or a re-encoded frame would differ from its source.
		var ext []byte
		if len(t.Names) > 0 || len(t.Stats) > 0 || len(t.Top) > 0 || len(t.Spans) > 0 ||
			t.RetryAfterMS != 0 || len(t.Members) > 0 || t.HeartbeatMS != 0 || t.Generation != 0 {
			var err error
			if ext, err = json.Marshal(respExt{t.Names, t.Stats, t.Top, t.Spans, t.RetryAfterMS, t.Members, t.HeartbeatMS, t.Generation}); err != nil {
				return buf, fmt.Errorf("wire: marshal extension: %w", err)
			}
			flags |= binFlagExt
		}
		buf = append(buf, binMagic, binKindResponse, flags)
		buf = appendStr(buf, t.ID)
		buf = appendStr(buf, t.Error)
		buf = appendBlob(buf, t.Payload)
		buf = appendBatch(buf, t.Batch)
		if flags&binFlagExt != 0 {
			buf = binary.AppendUvarint(buf, uint64(len(ext)))
			buf = append(buf, ext...)
		}
		return buf, nil
	default:
		return buf, fmt.Errorf("wire: no frame encoding for %T", v)
	}
}

// appendStr encodes one string as uvarint length + bytes.
func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// takeStrBytes decodes one appendStr section as a view into the frame
// buffer — valid only until the buffer returns to the pool, so callers
// must intern or copy before keeping it.
func takeStrBytes(b []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("wire: binary frame: bad string length")
	}
	b = b[k:]
	if uint64(len(b)) < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return b[:n], b[n:], nil
}

// takeStr decodes one appendStr section, copying out of the pooled
// frame buffer.
func takeStr(b []byte) (string, []byte, error) {
	s, rest, err := takeStrBytes(b)
	return string(s), rest, err
}

// appendBatch encodes a batch: uvarint 0 = nil, else count+1 followed
// by one blob per item.
func appendBatch(buf []byte, batch [][]byte) []byte {
	if batch == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(batch))+1)
	for _, b := range batch {
		buf = appendBlob(buf, b)
	}
	return buf
}

// takeBatch decodes one appendBatch section; alias is as for takeBlob.
func takeBatch(b []byte, alias bool) ([][]byte, []byte, error) {
	count, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("wire: binary frame: bad batch count")
	}
	b = b[k:]
	if count == 0 {
		return nil, b, nil
	}
	count--
	// Every item costs at least one byte, so a count beyond the
	// remaining bytes is corrupt — reject it before allocating.
	if count > uint64(len(b)) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	batch := make([][]byte, count)
	var err error
	for i := range batch {
		if batch[i], b, err = takeBlob(b, alias); err != nil {
			return nil, nil, err
		}
	}
	return batch, b, nil
}

// appendBlob encodes one byte slice, distinguishing nil from empty:
// uvarint 0 means nil, else length+1 followed by the bytes.
func appendBlob(buf, b []byte) []byte {
	if b == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b))+1)
	return append(buf, b...)
}

// takeBlob decodes one appendBlob section. With alias the returned slice
// points into b, capped at its own length so appending to it cannot
// overwrite the next field; without, it is a copy, because b goes back
// to the pool after decoding.
func takeBlob(b []byte, alias bool) (blob, rest []byte, err error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, fmt.Errorf("wire: binary frame: bad blob length")
	}
	b = b[k:]
	if n == 0 {
		return nil, b, nil
	}
	n--
	if uint64(len(b)) < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	if alias {
		return b[:n:n], b[n:], nil
	}
	return bytes.Clone(b[:n]), b[n:], nil
}

// takeJSON decodes one uvarint-length JSON section into v.
func takeJSON(b []byte, v any, what string) ([]byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("wire: binary frame: bad %s length", what)
	}
	b = b[k:]
	if uint64(len(b)) < n {
		return nil, io.ErrUnexpectedEOF
	}
	if err := json.Unmarshal(b[:n], v); err != nil {
		return nil, fmt.Errorf("wire: unmarshal %s: %w", what, err)
	}
	return b[n:], nil
}

// decodeBody parses one frame body into v, which must be *Request or
// *Response, and rejects a body with bytes left over. With alias the
// payload and batch items point into b (see takeBlob).
func decodeBody(b []byte, v any, alias bool) error {
	if len(b) == 0 {
		return io.ErrUnexpectedEOF
	}
	if b[0] != binMagic {
		return fmt.Errorf("wire: frame magic %#x, want %#x: the peer speaks another protocol version", b[0], binMagic)
	}
	if len(b) < 2 {
		return io.ErrUnexpectedEOF
	}
	kind := b[1]
	var err error
	switch t := v.(type) {
	case *Request:
		if kind != binKindRequest {
			return fmt.Errorf("wire: binary frame: kind %#x is not a request", kind)
		}
		b, err = decodeRequest(b[2:], t, alias)
	case *Response:
		if kind != binKindResponse {
			return fmt.Errorf("wire: binary frame: kind %#x is not a response", kind)
		}
		b, err = decodeResponse(b[2:], t, alias)
	default:
		return fmt.Errorf("wire: no frame encoding for %T", v)
	}
	if err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("wire: binary frame: %d trailing bytes", len(b))
	}
	return nil
}

// decodeRequest parses a request body after the magic and kind bytes and
// returns what is left of b.
func decodeRequest(b []byte, t *Request, alias bool) ([]byte, error) {
	op, b, err := takeStrBytes(b)
	if err != nil {
		return nil, err
	}
	t.Op = internOp(op)
	if t.ID, b, err = takeStr(b); err != nil {
		return nil, err
	}
	if t.Fn, b, err = takeStr(b); err != nil {
		return nil, err
	}
	if t.Payload, b, err = takeBlob(b, alias); err != nil {
		return nil, err
	}
	if t.Batch, b, err = takeBatch(b, alias); err != nil {
		return nil, err
	}
	if t.TraceID, b, err = takeStr(b); err != nil {
		return nil, err
	}
	if t.SpanID, b, err = takeStr(b); err != nil {
		return nil, err
	}
	p, k := binary.Varint(b)
	if k <= 0 {
		return nil, fmt.Errorf("wire: binary frame: bad priority")
	}
	t.Priority = int(p)
	b = b[k:]
	t.Member = nil
	if len(b) > 0 && b[0] == 0 {
		return b[1:], nil // no member body
	}
	t.Member = new(MemberInfo)
	return takeJSON(b, t.Member, "member")
}

// decodeResponse parses a response body after the magic and kind bytes
// and returns what is left of b.
func decodeResponse(b []byte, t *Response, alias bool) ([]byte, error) {
	if len(b) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	flags := b[0]
	t.OK = flags&binFlagOK != 0
	t.Retryable = flags&binFlagRetryable != 0
	var err error
	if t.ID, b, err = takeStr(b[1:]); err != nil {
		return nil, err
	}
	if t.Error, b, err = takeStr(b); err != nil {
		return nil, err
	}
	if t.Payload, b, err = takeBlob(b, alias); err != nil {
		return nil, err
	}
	if t.Batch, b, err = takeBatch(b, alias); err != nil {
		return nil, err
	}
	t.Names, t.Stats, t.Top, t.Spans = nil, nil, nil, nil
	t.RetryAfterMS, t.Members, t.HeartbeatMS, t.Generation = 0, nil, 0, 0
	if flags&binFlagExt == 0 {
		return b, nil
	}
	// Declared here, not above: JSON decoding moves it to the heap, and
	// the invoke hot path carries no extension.
	var ext respExt
	if b, err = takeJSON(b, &ext, "extension"); err != nil {
		return nil, err
	}
	t.Names, t.Stats, t.Top, t.Spans = ext.Names, ext.Stats, ext.Top, ext.Spans
	t.RetryAfterMS = ext.RetryAfterMS
	t.Members, t.HeartbeatMS, t.Generation = ext.Members, ext.HeartbeatMS, ext.Generation
	return b, nil
}

// internOp maps the protocol's known ops back to their constants so
// decoding a request allocates no string for the op field.
func internOp(s []byte) Op {
	switch string(s) { // compiled without allocating
	case string(OpInvoke):
		return OpInvoke
	case string(OpBatch):
		return OpBatch
	case string(OpPing):
		return OpPing
	case string(OpList):
		return OpList
	case string(OpStats):
		return OpStats
	case string(OpTop):
		return OpTop
	case string(OpTrace):
		return OpTrace
	case string(OpRegister):
		return OpRegister
	case string(OpHeartbeat):
		return OpHeartbeat
	case string(OpDeregister):
		return OpDeregister
	case string(OpEndpoints):
		return OpEndpoints
	}
	return Op(s)
}
