package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"continuum/internal/faas"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	reg := faas.NewRegistry()
	reg.Register("echo", func(p []byte) ([]byte, error) { return p, nil })
	reg.Register("upper", func(p []byte) ([]byte, error) {
		return bytes.ToUpper(p), nil
	})
	reg.Register("fail", func([]byte) ([]byte, error) { return nil, errors.New("nope") })
	ep := faas.NewEndpoint(faas.EndpointConfig{
		Name: "local", Capacity: 4, ColdStart: 0, WarmTTL: time.Minute,
	}, reg)
	srv := &Server{Invoker: ep, Batcher: ep, Registry: reg, Endpoints: []*faas.Endpoint{ep}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return srv, lis.Addr().String()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Request{Op: OpInvoke, Fn: "f", Payload: []byte{1, 2, 3}}
	if err := WriteFrameCodec(&buf, &in, CodecBinary); err != nil {
		t.Fatal(err)
	}
	var out Request
	if _, err := ReadFrameCodec(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Fn != in.Fn || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var req Request
	_, err := ReadFrameCodec(bytes.NewReader(hdr[:]), &req)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadFrameShortBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("{}") // only 2 bytes of promised 100
	var req Request
	if _, err := ReadFrameCodec(&buf, &req); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestClientInvoke(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Invoke("upper", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "HELLO" {
		t.Fatalf("out = %q", out)
	}
}

func TestClientPing(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestClientInvokeError(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Invoke("fail", nil)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v", err)
	}
	// Connection must survive an application error.
	if _, err := c.Invoke("echo", []byte("still alive")); err != nil {
		t.Fatalf("connection dead after app error: %v", err)
	}
}

func TestClientUnknownFunction(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	if _, err := c.Invoke("ghost", nil); err == nil {
		t.Fatal("unknown function succeeded")
	}
}

func TestClientList(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
}

func TestClientStats(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	c.Invoke("echo", []byte("x"))
	c.Invoke("echo", []byte("y"))
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Invocations != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].ColdStarts != 1 || stats[0].WarmHits != 1 {
		t.Fatalf("cold/warm = %d/%d", stats[0].ColdStarts, stats[0].WarmHits)
	}
}

func TestClientBatch(t *testing.T) {
	_, addr := startServer(t)
	c, _ := Dial(addr)
	defer c.Close()
	outs, err := c.InvokeBatch("upper", [][]byte{[]byte("a"), []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || string(outs[0]) != "A" || string(outs[1]) != "B" {
		t.Fatalf("outs = %q", outs)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				out, err := c.Invoke("echo", []byte("m"))
				if err != nil || string(out) != "m" {
					t.Errorf("invoke: %q, %v", out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestUnknownOp(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrameCodec(conn, &Request{Op: "nonsense"}, CodecBinary); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if _, err := ReadFrameCodec(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	srv, _ := startServer(t)
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
}
