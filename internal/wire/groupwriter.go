package wire

// groupWriter batches concurrent frame writes on one connection into
// shared syscalls. Writers append encoded frames to a queue and signal
// a dedicated flusher goroutine, which yields once before snapshotting
// the queue — so every caller runnable at that moment gets its frame
// into the same Write. A lone caller pays one goroutine handoff; 64
// pipelined callers share a syscall, which is where most of the
// multiplexed throughput comes from on a loaded host.
//
// A flush failure is terminal for the connection: framing may be torn
// mid-frame, so the writer records the error, drops the queue, and
// severs the connection via onFatal so every sharer fails fast.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// errWriteQueueOverflow is returned when more than MaxFrame bytes of
// frames are queued behind a peer that has stopped draining its socket;
// the connection is severed rather than buffering unboundedly.
var errWriteQueueOverflow = errors.New("wire: write queue overflow")

type groupWriter struct {
	conn     net.Conn
	deadline func() time.Time // optional per-flush write deadline
	onFatal  func(error)      // severs the connection; called at most once

	mu      sync.Mutex
	wake    *sync.Cond // signals the flusher: queue non-empty or stopping
	idle    *sync.Cond // broadcast when the flusher drains the queue or fails
	queue   []byte     // encoded frames awaiting flush
	busy    bool       // flusher is between snapshot and completion
	stopped bool
	err     error // terminal: set once, every later write fails fast

	spare []byte // recycled queue backing; flusher-only
}

func newGroupWriter(conn net.Conn, deadline func() time.Time, onFatal func(error)) *groupWriter {
	g := &groupWriter{conn: conn, deadline: deadline, onFatal: onFatal}
	g.wake = sync.NewCond(&g.mu)
	g.idle = sync.NewCond(&g.mu)
	go g.flushLoop()
	return g
}

// writeFrame encodes v and queues the frame for the flusher, returning
// its wire size. The returned error covers only queueing — a later flush
// failure severs the connection, which callers observe through their
// read side.
func (g *groupWriter) writeFrame(v any) (int64, error) {
	bp := getBuf()
	frame, err := appendFrame((*bp)[:0], v)
	if err != nil {
		putBuf(bp)
		return 0, err
	}
	n := int64(len(frame))
	err = g.enqueue(frame)
	*bp = frame
	putBuf(bp)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// enqueue appends one encoded frame to the queue and signals the
// flusher.
func (g *groupWriter) enqueue(frame []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return fmt.Errorf("wire: connection failed: %w", g.err)
	}
	if g.stopped {
		return net.ErrClosed
	}
	if len(g.queue) > MaxFrame {
		g.failLocked(errWriteQueueOverflow)
		return errWriteQueueOverflow
	}
	g.queue = append(g.queue, frame...)
	g.wake.Signal()
	return nil
}

// flushLoop is the connection's single flusher. Woken by the first
// queued frame, it yields the processor once so every caller that is
// currently runnable can append its frame too, then writes the whole
// queue in one syscall.
func (g *groupWriter) flushLoop() {
	g.mu.Lock()
	for {
		for g.err == nil && !g.stopped && len(g.queue) == 0 {
			g.wake.Wait()
		}
		if g.err != nil || (g.stopped && len(g.queue) == 0) {
			g.mu.Unlock()
			return
		}
		g.busy = true
		g.mu.Unlock()
		runtime.Gosched() // let concurrent callers pile on before snapshotting
		g.mu.Lock()
		out := g.queue
		g.queue = g.spare[:0]
		g.mu.Unlock()

		werr := g.flushChunk(out)

		g.mu.Lock()
		if cap(out) <= maxPooledBuf {
			g.spare = out[:0]
		} else {
			g.spare = nil
		}
		g.busy = false
		if werr != nil {
			g.failLocked(werr)
		} else if len(g.queue) == 0 {
			g.idle.Broadcast()
		}
	}
}

// flushChunk writes one batch of frames in a single syscall, bounded by
// the deadline callback when one is configured. Flusher-only.
func (g *groupWriter) flushChunk(out []byte) error {
	if g.deadline != nil {
		if d := g.deadline(); !d.IsZero() {
			g.conn.SetWriteDeadline(d)
		}
	}
	_, err := g.conn.Write(out)
	return err
}

// failLocked records the writer's terminal error (first one wins),
// drops the queue, and severs the connection. Caller holds mu.
func (g *groupWriter) failLocked(err error) {
	if g.err != nil {
		return
	}
	g.err = err
	g.queue = nil
	g.wake.Signal()
	g.idle.Broadcast()
	if g.onFatal != nil {
		g.onFatal(err)
	}
}

// stop shuts the flusher down once the queue drains. Safe to call more
// than once; pending frames are still flushed (the connection may be
// closing gracefully).
func (g *groupWriter) stop() {
	g.mu.Lock()
	g.stopped = true
	g.wake.Signal()
	g.idle.Broadcast()
	g.mu.Unlock()
}

// barrier blocks until every queued frame is on the wire (or the writer
// has failed) — the gate a graceful drain passes before closing a
// connection, so a response enqueued by the last in-flight request is
// never cut off mid-buffer.
func (g *groupWriter) barrier() {
	g.mu.Lock()
	for g.err == nil && (g.busy || len(g.queue) > 0) {
		g.idle.Wait()
	}
	g.mu.Unlock()
}
