package wire

// The protocol fails loudly: a peer speaking another frame layout — the
// JSON frames or the 0xC5 binary layout of earlier versions — is
// rejected on its first frame, and a response that cannot belong to a
// call breaks the connection instead of reaching the wrong caller.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/trace"
)

// frameOf prefixes body with its 4-byte length.
func frameOf(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// oldLayoutRequest is an invoke request in the previous binary layout:
// 0xC5 magic, an Accept string after the ID, and no trailer.
func oldLayoutRequest(id string) []byte {
	b := []byte{0xC5, binKindRequest}
	b = appendStr(b, string(OpInvoke))
	b = appendStr(b, id)
	b = appendStr(b, AcceptBinary)
	b = appendStr(b, "upper")
	b = appendBlob(b, []byte("hi"))
	return appendBatch(b, nil)
}

// oldLayoutResponse is a successful response in the previous binary
// layout: 0xC5 magic and a Codec ack string after the ID.
func oldLayoutResponse(id string) []byte {
	b := []byte{0xC5, binKindResponse, binFlagOK}
	b = appendStr(b, id)
	b = appendStr(b, "bin")
	b = appendStr(b, "")
	b = appendBlob(b, []byte("HI"))
	return appendBatch(b, nil)
}

// startRawServer serves every connection with handle on a fresh
// listener and returns its address.
func startRawServer(t *testing.T, handle func(net.Conn)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				handle(conn)
			}()
		}
	}()
	return lis.Addr().String()
}

// startJSONOnlyServer runs a server that speaks the original JSON
// frames: it unmarshals each body as JSON and hangs up on one it cannot
// parse, as such servers did.
func startJSONOnlyServer(t *testing.T) string {
	return startRawServer(t, func(conn net.Conn) {
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(conn, body); err != nil {
				return
			}
			var req struct{ ID string }
			if json.Unmarshal(body, &req) != nil {
				return
			}
			resp, _ := json.Marshal(map[string]any{"ok": true, "id": req.ID})
			conn.Write(frameOf(resp))
		}
	})
}

// startAnsweringServer reads requests in the current layout and answers
// each with the frame body reply builds.
func startAnsweringServer(t *testing.T, reply func(req *Request) []byte) string {
	return startRawServer(t, func(conn net.Conn) {
		for {
			req := new(Request)
			if _, err := ReadFrameCodec(conn, req); err != nil {
				return
			}
			if _, err := conn.Write(frameOf(reply(req))); err != nil {
				return
			}
		}
	})
}

// requireCallFails asserts one invoke fails promptly with an error
// containing want, and leaves the client broken.
func requireCallFails(t *testing.T, c *Client, want string) {
	t.Helper()
	c.SetCallTimeout(2 * time.Second)
	out, err := c.Invoke("upper", []byte("hi"))
	if err == nil || out != nil {
		t.Fatalf("call returned %q, %v; want a failure", out, err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call hung until its timeout instead of failing: %v", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("call failed with %v, want an error mentioning %q", err, want)
	}
	if !c.Broken() {
		t.Fatal("client not broken after a protocol violation")
	}
}

// TestNewClientAgainstJSONOnlyServer: a server from before the binary
// codec cannot parse the client's first frame and hangs up; the call
// fails at once instead of waiting for an answer.
func TestNewClientAgainstJSONOnlyServer(t *testing.T) {
	c, err := Dial(startJSONOnlyServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	requireCallFails(t, c, "connection failed")
}

// TestOldLayoutResponseFailsCall: a response in an earlier layout —
// JSON, or the 0xC5 binary layout carrying the right request ID — fails
// the call on its magic byte and is never delivered mis-decoded.
func TestOldLayoutResponseFailsCall(t *testing.T) {
	for name, reply := range map[string]func(*Request) []byte{
		"json": func(req *Request) []byte {
			b, _ := json.Marshal(map[string]any{"ok": true, "id": req.ID, "payload": []byte("HI")})
			return b
		},
		"0xC5": func(req *Request) []byte { return oldLayoutResponse(req.ID) },
	} {
		t.Run(name, func(t *testing.T) {
			c, err := Dial(startAnsweringServer(t, reply))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			requireCallFails(t, c, "another protocol version")
		})
	}
}

// TestNewClientAgainstIDStrippingServer: every request carries an ID, so
// a response without one belongs to no call. It breaks the connection,
// failing the waiting call instead of leaving it to time out.
func TestNewClientAgainstIDStrippingServer(t *testing.T) {
	addr := startAnsweringServer(t, func(req *Request) []byte {
		body, err := appendBody(nil, &Response{OK: true, Payload: bytes.ToUpper(req.Payload)})
		if err != nil {
			t.Error(err)
		}
		return body
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	requireCallFails(t, c, errNoResponseID.Error())
}

// TestTracedClientAgainstLegacyServer: a traced call against a server
// from before the binary codec fails, and the client's send span records
// the failure rather than a clean call.
func TestTracedClientAgainstLegacyServer(t *testing.T) {
	c, err := Dial(startJSONOnlyServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	store := trace.NewSpanStore(64)
	c.SetSpans(store, "ctl")

	traceID := trace.NewTraceID()
	ctx := trace.NewContext(context.Background(), trace.SpanContext{TraceID: traceID})
	if out, err := c.InvokeContext(ctx, "upper", []byte("legacy")); err == nil {
		t.Fatalf("traced call against a legacy server returned %q", out)
	}
	spans := store.Trace(traceID)
	if len(spans) != 1 {
		t.Fatalf("client recorded %d spans, want 1 send span", len(spans))
	}
	if send := spans[0]; send.Kind != trace.KindClient || send.Service != "ctl" || send.Err == "" {
		t.Fatalf("send span = %+v, want a client span carrying the error", send)
	}
}

// TestOldClientAgainstNewServer: a JSON-bodied frame and a 0xC5-magic
// frame are each rejected on arrival — the server answers nothing and
// closes the connection.
func TestOldClientAgainstNewServer(t *testing.T) {
	_, addr := startServer(t)
	jsonReq, err := json.Marshal(map[string]any{"op": "invoke", "id": "old-1", "fn": "upper", "payload": []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"json": jsonReq, "0xC5": oldLayoutRequest("old-1")} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frameOf(body)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
			t.Fatalf("%s frame: server answered %d bytes (err %v); want the connection closed", name, n, err)
		}
		conn.Close()
	}
}

// startHoldingServer answers the first two requests on a connection in
// the order they arrived, but only after the second one is read: the
// first call's answer lands while the second call is waiting.
func startHoldingServer(t *testing.T) string {
	return startRawServer(t, func(conn net.Conn) {
		var reqs [2]Request
		for i := range reqs {
			if _, err := ReadFrameCodec(conn, &reqs[i]); err != nil {
				return
			}
		}
		for _, req := range reqs {
			resp := &Response{OK: true, ID: req.ID, Payload: bytes.ToUpper(req.Payload)}
			if err := WriteFrameCodec(conn, resp, CodecBinary); err != nil {
				return
			}
		}
		io.Copy(io.Discard, conn)
	})
}

// TestLateResponseDroppedAfterTimeout: when a call times out, its
// eventual response is dropped — never handed to the call behind it.
func TestLateResponseDroppedAfterTimeout(t *testing.T) {
	c, err := Dial(startHoldingServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.InvokeContext(ctx, "upper", []byte("slow")); err == nil {
		t.Fatal("expected the held call to time out")
	}
	out, err := c.Invoke("upper", []byte("next"))
	if err != nil || string(out) != "NEXT" {
		t.Fatalf("call after timeout got %q, %v — stale response misrouted", out, err)
	}
}

// TestLateResponseDroppedAfterCancel: the hedged-request variant. A
// losing hedge arm is cancelled while its request is outstanding; the
// server's eventual answer to it is dropped, and the next call on the
// pooled connection gets its own.
func TestLateResponseDroppedAfterCancel(t *testing.T) {
	c, err := Dial(startHoldingServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	if _, err := c.InvokeContext(ctx, "upper", []byte("loser")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	out, err := c.Invoke("upper", []byte("winner"))
	if err != nil || string(out) != "WINNER" {
		t.Fatalf("call after cancellation got %q, %v — the loser's response leaked", out, err)
	}
}
