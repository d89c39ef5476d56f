package wire

// groupWriter is a combining writer, with no goroutine of its own: the
// first writer to find the connection free (the holder) writes its frame
// inline in one Write; writers arriving meanwhile queue theirs and
// return; the holder writes the queue, one Write per batch, then lets go.
//
// A queued batch is written under its frames' latest deadline (none if
// one has none). The holder's own deadline, or its ctx ending, also cuts
// its Writes; a cut holder hands what it still owes others to a
// goroutine, which stays busy, so barrier waits for it. A cut Write that
// wrote nothing of frames nobody waits for any more drops them. Any other write failure is terminal (framing may
// be torn): the writer drops the queue and severs the connection.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// errWriteQueueOverflow severs a connection with more than MaxFrame
// bytes queued behind a peer that has stopped draining its socket.
var errWriteQueueOverflow = errors.New("wire: write queue overflow")

type groupWriter struct {
	conn     net.Conn
	onFatal  func(error) // severs the connection; called at most once
	mu       sync.Mutex
	idle     *sync.Cond // broadcast when the holder lets go or the writer fails
	queue    []byte     // frames that arrived while a Write was in progress
	qdl      time.Time  // the queue's deadline: its frames' latest, zero = none
	busy     bool       // a writer holds the connection
	stopped  bool
	err      error     // terminal: set once, every later write fails fast
	tenure   uint64    // counts holders, so a late cancellation cuts no later one
	hdl      time.Time // the holder's own deadline, zero = none
	deadline time.Time // write deadline set on conn
	spare    []byte    // recycled queue backing; holder-only
}

func newGroupWriter(conn net.Conn, onFatal func(error)) *groupWriter {
	g := &groupWriter{conn: conn, onFatal: onFatal}
	g.idle = sync.NewCond(&g.mu)
	return g
}

// writeFrame encodes v and writes or queues it, returning its wire size.
// deadline (zero = none) and ctx bound the caller's time writing; a
// queued frame's later write failure severs the connection.
func (g *groupWriter) writeFrame(ctx context.Context, v any, deadline time.Time) (int64, error) {
	bp := getBuf()
	frame, err := appendFrame((*bp)[:0], v)
	if err == nil {
		err = g.write(ctx, frame, deadline)
	}
	*bp = frame
	putBuf(bp)
	return int64(len(frame)), err
}

// write writes frame inline when the connection is free, else queues it.
func (g *groupWriter) write(ctx context.Context, frame []byte, deadline time.Time) error {
	g.mu.Lock()
	switch {
	case g.err != nil:
		g.mu.Unlock()
		return fmt.Errorf("wire: connection failed: %w", g.err)
	case g.stopped:
		g.mu.Unlock()
		return net.ErrClosed
	case g.busy:
		if len(g.queue) > MaxFrame {
			g.failLocked(errWriteQueueOverflow)
			g.mu.Unlock()
			return errWriteQueueOverflow
		}
		if len(g.queue) == 0 || (!g.qdl.IsZero() && (deadline.IsZero() || deadline.After(g.qdl))) {
			g.qdl = deadline
		}
		g.queue = append(g.queue, frame...)
		g.mu.Unlock()
		return nil
	}
	g.busy, g.hdl, g.tenure = true, deadline, g.tenure+1
	if ctx.Done() != nil { // ctx ending cuts this holder's Write so it can leave
		t := g.tenure
		defer context.AfterFunc(ctx, func() {
			g.mu.Lock()
			if g.tenure == t && g.busy {
				g.hdl, g.deadline = time.Unix(1, 0), time.Unix(1, 0)
				_ = g.conn.SetWriteDeadline(g.hdl) // on a closed conn, Write fails too
			}
			g.mu.Unlock()
		})()
	}
	return g.run(frame, deadline, true, false)
}

// run writes out (mine: the holder's frame; torn: out starts mid-frame),
// then each queued batch, every Write bounded by the earlier of its
// deadline dl and the holder's, and lets go. Called with mu held.
func (g *groupWriter) run(out []byte, dl time.Time, mine, torn bool) (err error) {
	for g.err == nil && len(out)+len(g.queue) > 0 {
		if !mine && expired(g.hdl) { // the holder is out of time: hand over the rest
			g.hdl, g.tenure = time.Time{}, g.tenure+1
			go func(out []byte, dl time.Time, torn bool) { g.mu.Lock(); g.run(out, dl, false, torn) }(out, dl, torn)
			g.mu.Unlock()
			return err
		}
		if len(out) == 0 {
			out, dl, torn = g.queue, g.qdl, false
			g.queue, g.spare = g.spare[:0], nil
		}
		d := dl
		if d.IsZero() || (!g.hdl.IsZero() && g.hdl.Before(d)) {
			d = g.hdl
		}
		if !d.Equal(g.deadline) {
			_ = g.conn.SetWriteDeadline(d) // fails only on a closed conn, as does Write
			g.deadline = d
		}
		g.mu.Unlock()
		n, werr := g.conn.Write(out)
		g.mu.Lock()
		rest := out[n:]
		switch {
		case werr == nil:
		case !errors.Is(werr, os.ErrDeadlineExceeded):
			g.failLocked(werr)
		case n == 0 && !torn && (mine || expired(dl)):
			rest = nil // none of it was written, and no caller waits on it
		case expired(dl):
			g.failLocked(werr) // a frame cut partway past its callers' deadline
		}
		if mine && werr != nil { // out goes back to the caller's pool
			err, rest = fmt.Errorf("wire: write: %w", werr), append([]byte(nil), rest...)
		}
		if len(rest) == 0 && !mine && !torn && cap(out) <= maxPooledBuf {
			g.spare = out[:0]
		}
		out, torn, mine = rest, torn || n > 0, false
	}
	g.busy = false
	g.idle.Broadcast()
	g.mu.Unlock()
	return err
}

// failLocked records the first terminal error, drops the queue and
// severs the connection. Caller holds mu.
func (g *groupWriter) failLocked(err error) {
	if g.err == nil {
		g.err, g.queue = err, nil
		g.idle.Broadcast()
		g.onFatal(err)
	}
}

// stop refuses every later write; frames already queued are still
// written (the connection may be closing gracefully). Idempotent.
func (g *groupWriter) stop() {
	g.mu.Lock()
	g.stopped = true
	g.mu.Unlock()
}

// barrier blocks until every queued frame is on the wire or the writer
// has failed: a graceful drain passes it before closing a connection, so
// a response queued by the last in-flight request is never cut off.
func (g *groupWriter) barrier() {
	g.mu.Lock()
	for g.err == nil && g.busy {
		g.idle.Wait()
	}
	g.mu.Unlock()
}
