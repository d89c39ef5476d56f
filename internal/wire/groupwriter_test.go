package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writeConn is a net.Conn that counts Writes and keeps what they wrote.
// With hold set, the first Write signals entered and blocks until hold
// is closed; with fail set, every Write after the hold fails; with
// onWrite set, it decides how many bytes of Write i (from 1) go through
// and what the Write returns.
type writeConn struct {
	net.Conn // nil: the writer only calls Write and SetWriteDeadline

	hold    chan struct{}
	entered chan struct{}
	fail    error
	onWrite func(i int, p []byte, deadline time.Time) (int, error)

	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
	dl     time.Time   // write deadline in force
	dls    []time.Time // write deadline in force at each Write
}

func heldConn() *writeConn {
	return &writeConn{hold: make(chan struct{}), entered: make(chan struct{})}
}

func (w *writeConn) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	i, dl := w.writes, w.dl
	w.dls = append(w.dls, dl)
	w.mu.Unlock()
	if i == 1 && w.hold != nil {
		close(w.entered)
		<-w.hold
	}
	n, err := len(p), w.fail
	if w.onWrite != nil {
		n, err = w.onWrite(i, p, dl)
	} else if err != nil {
		n = 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p[:n])
	return n, err
}

func (w *writeConn) SetWriteDeadline(t time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dl = t
	return nil
}

func (w *writeConn) deadline() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dl
}

func (w *writeConn) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

// frameIDs decodes every request frame written to w, in order.
func (w *writeConn) frameIDs(t *testing.T) []string {
	t.Helper()
	w.mu.Lock()
	r := bytes.NewReader(w.buf.Bytes())
	w.mu.Unlock()
	var ids []string
	for {
		req := new(Request)
		if _, err := ReadFrameCodec(r, req); err == io.EOF {
			return ids
		} else if err != nil {
			t.Fatalf("frame %d: %v", len(ids), err)
		}
		ids = append(ids, req.ID)
	}
}

func frameReq(id string) *Request {
	return &Request{Op: OpInvoke, ID: id, Fn: "echo", Payload: []byte(id)}
}

// startHolder writes frame "holder" on a goroutine and waits until its
// Write is in progress (held by c).
func startHolder(t *testing.T, g *groupWriter, c *writeConn) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := g.writeFrame(context.Background(), frameReq("holder"), time.Time{})
		done <- err
	}()
	select {
	case <-c.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("holder never reached Write")
	}
	return done
}

// TestGroupWriterLoneFrameOneWrite: a lone writer makes exactly one
// Write per frame, and the writer runs no goroutine of its own.
func TestGroupWriterLoneFrameOneWrite(t *testing.T) {
	c := &writeConn{}
	g := newGroupWriter(c, func(error) {})
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "created by continuum/internal/wire.newGroupWriter") {
		t.Fatalf("newGroupWriter left a goroutine running:\n%s", stacks)
	}
	want := []string{"a", "b", "c"}
	for i, id := range want {
		if _, err := g.writeFrame(context.Background(), frameReq(id), time.Time{}); err != nil {
			t.Fatal(err)
		}
		if n := c.count(); n != i+1 {
			t.Fatalf("after %d frames: %d Writes, want %d", i+1, n, i+1)
		}
	}
	if got := c.frameIDs(t); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("frames on the wire %v, want %v", got, want)
	}
}

// TestGroupWriterCombinesConcurrentWriters: with the first Write held
// open, every other writer queues and returns; releasing it puts all
// their frames on the wire in one more Write, intact.
func TestGroupWriterCombinesConcurrentWriters(t *testing.T) {
	const n = 16
	c := heldConn()
	g := newGroupWriter(c, func(error) {})
	holder := startHolder(t, g, c)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := g.writeFrame(context.Background(), frameReq(fmt.Sprint("q", i)), time.Time{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait() // queued writers return without waiting for the wire
	close(c.hold)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	g.barrier()
	if w := c.count(); w != 2 {
		t.Fatalf("%d writers made %d Writes, want 2", n, w)
	}
	ids := c.frameIDs(t)
	seen := make(map[string]bool)
	for _, id := range ids {
		seen[id] = true
	}
	if len(ids) != n || len(seen) != n || ids[0] != "holder" {
		t.Fatalf("decoded %d frames (%d distinct, first %q), want %d distinct, holder first", len(ids), len(seen), ids[0], n)
	}
}

// TestGroupWriterOverflowSevers: more than MaxFrame bytes queued behind
// a held Write fails with errWriteQueueOverflow, calls onFatal once,
// drops the queue, and fails every later write.
func TestGroupWriterOverflowSevers(t *testing.T) {
	c := heldConn()
	var fatals atomic.Int32
	g := newGroupWriter(c, func(error) { fatals.Add(1) })
	holder := startHolder(t, g, c)
	big := &Request{Op: OpInvoke, ID: "big", Payload: make([]byte, 1<<20)}
	var err error
	for i := 0; i <= MaxFrame>>20+1 && err == nil; i++ {
		_, err = g.writeFrame(context.Background(), big, time.Time{})
	}
	if !errors.Is(err, errWriteQueueOverflow) {
		t.Fatalf("queueing past MaxFrame returned %v, want errWriteQueueOverflow", err)
	}
	if n := fatals.Load(); n != 1 {
		t.Fatalf("onFatal called %d times, want 1", n)
	}
	if _, err := g.writeFrame(context.Background(), frameReq("late"), time.Time{}); err == nil || !strings.Contains(err.Error(), "connection failed") {
		t.Fatalf("write after overflow returned %v, want connection failed", err)
	}
	close(c.hold)
	if err := <-holder; err != nil {
		t.Fatalf("holder's own frame was written, got %v", err)
	}
	g.barrier()
	if w, n := c.count(), fatals.Load(); w != 1 || n != 1 {
		t.Fatalf("after release: %d Writes, %d onFatal calls; want 1 and 1 (queue dropped)", w, n)
	}
}

// TestGroupWriterFailedWriteReleasesBarrier: a failing Write is
// terminal — barrier returns, onFatal runs once, and the holder and
// every later writer see the failure.
func TestGroupWriterFailedWriteReleasesBarrier(t *testing.T) {
	boom := errors.New("boom")
	c := heldConn()
	c.fail = boom
	var fatals atomic.Int32
	g := newGroupWriter(c, func(error) { fatals.Add(1) })
	holder := startHolder(t, g, c)
	if _, err := g.writeFrame(context.Background(), frameReq("queued"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		g.barrier()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("barrier returned while a Write was in progress")
	case <-time.After(20 * time.Millisecond):
	}
	close(c.hold)
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("barrier still blocked after the Write failed")
	}
	if err := <-holder; !errors.Is(err, boom) {
		t.Fatalf("holder returned %v, want the write error", err)
	}
	if _, err := g.writeFrame(context.Background(), frameReq("late"), time.Time{}); !errors.Is(err, boom) {
		t.Fatalf("write after failure returned %v, want the write error", err)
	}
	if n := fatals.Load(); n != 1 {
		t.Fatalf("onFatal called %d times, want 1", n)
	}
}

// TestGroupWriterExpiredFrameKeepsConn: a frame whose deadline has
// passed before any of it is written is dropped; the holder gets the
// timeout, and the connection stays up for the next writer.
func TestGroupWriterExpiredFrameKeepsConn(t *testing.T) {
	c := &writeConn{onWrite: func(_ int, p []byte, dl time.Time) (int, error) {
		if expired(dl) {
			return 0, os.ErrDeadlineExceeded
		}
		return len(p), nil
	}}
	var fatals atomic.Int32
	g := newGroupWriter(c, func(error) { fatals.Add(1) })
	if _, err := g.writeFrame(context.Background(), frameReq("late"), time.Now().Add(-time.Millisecond)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expired frame returned %v, want os.ErrDeadlineExceeded", err)
	}
	if _, err := g.writeFrame(context.Background(), frameReq("next"), time.Time{}); err != nil {
		t.Fatalf("write after a dropped frame: %v", err)
	}
	if got := c.frameIDs(t); fmt.Sprint(got) != "[next]" || fatals.Load() != 0 {
		t.Fatalf("frames on the wire %v, onFatal calls %d; want [next] and 0", got, fatals.Load())
	}
}

// TestGroupWriterBatchDeadline: a queued batch is written under the
// latest deadline among its frames, none if one of them has none, and
// never later than the holder's own deadline.
func TestGroupWriterBatchDeadline(t *testing.T) {
	now := time.Now()
	d1, d2, d3 := now.Add(time.Hour), now.Add(2*time.Hour), now.Add(3*time.Hour)
	for _, tc := range []struct {
		name   string
		holder time.Time
		queued []time.Time
		want   time.Time
	}{
		{"latest", time.Time{}, []time.Time{d2, d1}, d2},
		{"one has none", time.Time{}, []time.Time{d1, {}, d2}, time.Time{}},
		{"holder's is earlier", d1, []time.Time{d2, d3}, d1},
		{"holder's is later", d3, []time.Time{d1, d2}, d2},
	} {
		c := heldConn()
		g := newGroupWriter(c, func(error) {})
		done := make(chan error, 1)
		go func() {
			_, err := g.writeFrame(context.Background(), frameReq("holder"), tc.holder)
			done <- err
		}()
		<-c.entered
		for i, dl := range tc.queued {
			if _, err := g.writeFrame(context.Background(), frameReq(fmt.Sprint("q", i)), dl); err != nil {
				t.Fatal(err)
			}
		}
		close(c.hold)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(c.dls) != 2 || !c.dls[1].Equal(tc.want) {
			t.Errorf("%s: Write deadlines %v, want the batch's %v", tc.name, c.dls, tc.want)
		}
	}
}

// TestGroupWriterCutHolderHandsOver: a holder whose own deadline cuts
// the Write of other callers' frames partway leaves at its deadline; a
// goroutine finishes those frames under their own deadline (none), so
// every frame arrives intact and the connection stays up.
func TestGroupWriterCutHolderHandsOver(t *testing.T) {
	c := heldConn()
	c.onWrite = func(i int, p []byte, dl time.Time) (int, error) {
		if i == 2 { // the queued batch: the peer stalls until the deadline
			time.Sleep(time.Until(dl))
			return len(p) / 2, os.ErrDeadlineExceeded
		}
		return len(p), nil
	}
	var fatals atomic.Int32
	g := newGroupWriter(c, func(error) { fatals.Add(1) })
	holderDL := time.Now().Add(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := g.writeFrame(context.Background(), frameReq("holder"), holderDL)
		done <- err
	}()
	<-c.entered
	for i := 0; i < 4; i++ {
		if _, err := g.writeFrame(context.Background(), frameReq(fmt.Sprint("q", i)), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	close(c.hold)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("holder's own frame was written, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("holder still writing others' frames 2s after its deadline")
	}
	g.barrier()
	if got := c.frameIDs(t); fmt.Sprint(got) != "[holder q0 q1 q2 q3]" || fatals.Load() != 0 {
		t.Fatalf("frames on the wire %v, onFatal calls %d; want [holder q0 q1 q2 q3] and 0", got, fatals.Load())
	}
	if len(c.dls) != 3 || !c.dls[1].Equal(holderDL) || !c.dls[2].IsZero() {
		t.Fatalf("Write deadlines %v, want [none, holder's, none]", c.dls)
	}
}

// TestGroupWriterCancelCutsHolder: cancelling the holder's ctx cuts its
// blocked Write; nothing of its frame was written, so the frame is
// dropped and the connection stays up.
func TestGroupWriterCancelCutsHolder(t *testing.T) {
	entered := make(chan struct{})
	c := &writeConn{}
	c.onWrite = func(i int, p []byte, _ time.Time) (int, error) {
		if i > 1 {
			return len(p), nil
		}
		close(entered) // a peer that reads nothing until the deadline cuts in
		for end := time.Now().Add(2 * time.Second); !expired(c.deadline()) && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		return 0, os.ErrDeadlineExceeded
	}
	var fatals atomic.Int32
	g := newGroupWriter(c, func(error) { fatals.Add(1) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.writeFrame(ctx, frameReq("cancelled"), time.Time{})
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("cancelled holder returned %v, want its cut Write's timeout", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled holder still blocked in Write")
	}
	if _, err := g.writeFrame(context.Background(), frameReq("next"), time.Time{}); err != nil {
		t.Fatalf("write after a cancelled holder: %v", err)
	}
	if got := c.frameIDs(t); fmt.Sprint(got) != "[next]" || fatals.Load() != 0 {
		t.Fatalf("frames on the wire %v, onFatal calls %d; want [next] and 0", got, fatals.Load())
	}
}
