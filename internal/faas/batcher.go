package faas

import (
	"sort"
	"sync"
	"time"
)

// batchInvoker is what the batcher dispatches to: an Endpoint, or
// anything that spreads batches over several.
type batchInvoker interface {
	InvokeBatch(fn string, payloads [][]byte) ([][]byte, error)
}

type pendingCall struct {
	payload []byte
	done    chan struct{}
	out     []byte
	err     error
}

// Batcher groups invocations of the same function into batches of up to
// MaxBatch, flushed when full or after MaxWait — trading latency for
// amortized cold starts and slot acquisitions. It implements Invoker.
type Batcher struct {
	target   batchInvoker
	maxBatch int
	maxWait  time.Duration

	mu      sync.Mutex
	pending map[string][]*pendingCall
	timers  map[string]*time.Timer
	closed  bool
}

// NewBatcher wraps target with batching.
func NewBatcher(target batchInvoker, maxBatch int, maxWait time.Duration) *Batcher {
	if maxBatch < 1 {
		panic("faas: batcher maxBatch < 1")
	}
	return &Batcher{
		target:   target,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		pending:  make(map[string][]*pendingCall),
		timers:   make(map[string]*time.Timer),
	}
}

// Invoke enqueues the call and blocks until its batch executes.
func (b *Batcher) Invoke(fn string, payload []byte) ([]byte, error) {
	call := &pendingCall{payload: payload, done: make(chan struct{})}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.pending[fn] = append(b.pending[fn], call)
	n := len(b.pending[fn])
	if n >= b.maxBatch {
		batch := b.takeLocked(fn)
		b.mu.Unlock()
		b.dispatch(fn, batch)
	} else {
		if n == 1 && b.maxWait > 0 {
			b.timers[fn] = time.AfterFunc(b.maxWait, func() { b.Flush(fn) })
		}
		b.mu.Unlock()
	}

	<-call.done
	return call.out, call.err
}

// takeLocked removes and returns fn's pending batch; caller holds b.mu.
func (b *Batcher) takeLocked(fn string) []*pendingCall {
	batch := b.pending[fn]
	delete(b.pending, fn)
	if t, ok := b.timers[fn]; ok {
		t.Stop()
		delete(b.timers, fn)
	}
	return batch
}

// Flush dispatches fn's pending batch immediately (no-op when empty).
func (b *Batcher) Flush(fn string) {
	b.mu.Lock()
	batch := b.takeLocked(fn)
	b.mu.Unlock()
	b.dispatch(fn, batch)
}

// FlushAll dispatches every pending batch, in function-name order.
func (b *Batcher) FlushAll() {
	b.mu.Lock()
	fns := make([]string, 0, len(b.pending))
	for fn := range b.pending { //det: sorted below
		fns = append(fns, fn)
	}
	b.mu.Unlock()
	sort.Strings(fns)
	for _, fn := range fns {
		b.Flush(fn)
	}
}

// Close flushes everything and rejects further calls.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.FlushAll()
}

func (b *Batcher) dispatch(fn string, batch []*pendingCall) {
	if len(batch) == 0 {
		return
	}
	payloads := make([][]byte, len(batch))
	for i, c := range batch {
		payloads[i] = c.payload
	}
	outs, err := b.target.InvokeBatch(fn, payloads)
	for i, c := range batch {
		if err != nil {
			c.err = err
		} else {
			c.out = outs[i]
		}
		close(c.done)
	}
}
