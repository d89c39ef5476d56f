// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is callback-based rather than goroutine-based: events are
// closures scheduled at virtual times and executed in nondecreasing time
// order by a single Run loop. This keeps simulations deterministic
// (identical seeds produce identical traces), avoids synchronization
// overhead, and scales to millions of events per second on one core.
//
// Ties are broken by scheduling order: two events at the same virtual time
// fire in the order they were scheduled, so the simulation is fully
// reproducible.
//
// # Event queue
//
// The queue is a calendar queue (Brown 1988): an array of "day" buckets,
// each a sorted intrusive list, indexed by floor(time/width) mod buckets.
// Insert and extract-min are O(1) when the bucket width tracks the mean
// inter-event gap, which the queue maintains by resampling the width and
// doubling/halving the bucket count as the population crosses powers of
// two. Time distributions that defeat a fixed-width layout (a huge
// far-future outlier stretching the sampled width so the near-term events
// pile into one bucket) are detected by the per-operation work counters
// and demote the kernel to a binary heap for the rest of its lifetime —
// the heap is also available directly via NewKernelQueue for reference
// runs and differential tests.
//
// Event records are pooled: a fired or compacted record returns to a
// per-kernel freelist, and a fully drained kernel parks its freelist in a
// shared sync.Pool for the next kernel to adopt (the wire-buffer
// discipline), so steady-state scheduling — and even whole-kernel-per-run
// sweeps — allocate nothing. Timer handles carry a generation number so a
// stale handle can never cancel the record's next tenant.
package sim

import (
	"fmt"
	"math"
	"sync"
)

// timerRec is the pooled event record. Handles (Timer) reference it
// together with the generation observed at scheduling time; the
// generation advances whenever the record is recycled, invalidating every
// outstanding handle.
type timerRec struct {
	next      *timerRec // bucket chain (calendar mode) or freelist link
	fn        func()
	time      float64
	seq       uint64
	gen       uint64
	vb        int64 // virtual bucket index = floor(time/width) at insert
	cancelled bool
}

// recLess orders records by (time, seq): virtual time, ties broken by
// scheduling order.
func recLess(a, b *timerRec) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Timer is a cancellable handle to a scheduled event, returned by At and
// After. It is a small value — copy it freely; the zero Timer is inert
// (Cancel and Pending are no-ops on it).
//
// Records behind timers are pooled and reused after the event fires or
// its cancellation is compacted away. A stale handle is detected by its
// generation number, so Cancel after firing remains a safe no-op even
// when the record already carries a different event.
type Timer struct {
	k   *Kernel
	rec *timerRec
	gen uint64
	at  float64
}

// Cancel prevents the timer's event from firing. It reports whether the
// event was still pending; cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t Timer) Cancel() bool {
	r := t.rec
	if r == nil || r.gen != t.gen || r.cancelled {
		return false
	}
	r.cancelled = true
	k := t.k
	k.live--
	k.dead++
	// Compact once cancelled records exceed the live half of the queue:
	// a speculation/hedge-heavy run cancels most of what it schedules,
	// and without compaction the dead records would ride the queue until
	// their virtual time arrives.
	if k.dead > k.live && k.dead > compactMin {
		k.compact()
	}
	return true
}

// Pending reports whether the event is still scheduled: not yet fired and
// not cancelled.
func (t Timer) Pending() bool {
	return t.rec != nil && t.rec.gen == t.gen && !t.rec.cancelled
}

// QueueKind selects the kernel's event-queue implementation.
type QueueKind int

const (
	// QueueCalendar is the default: the calendar queue with automatic
	// demotion to the binary heap on pathological time distributions.
	QueueCalendar QueueKind = iota
	// QueueHeap pins the binary heap. It is the reference ordering the
	// calendar queue is differentially tested against, and the baseline
	// BenchmarkKernelSteadyState and the sim-kernel benchmark workload
	// compare the calendar queue with.
	QueueHeap
)

const (
	minBuckets = 64
	maxBuckets = 1 << 21

	// compactMin is the cancelled-record floor below which compaction is
	// not worth the walk.
	compactMin = 64

	// workSample/workThreshold drive the heap fallback: per-operation
	// queue work (insert walk + dequeue scan steps) is averaged over
	// windows of workSample operations, and a sustained average above
	// workThreshold on a grown queue means the time distribution has
	// defeated the calendar layout.
	workSample    = 4096
	workThreshold = 24

	// maxVB caps virtual bucket indices so degenerate widths cannot
	// overflow the int64 bucket arithmetic; everything beyond collapses
	// into one (sorted) far-future bucket.
	maxVB = int64(1) << 62
)

// bucketEnt is one calendar day: the head of an UNSORTED intrusive list
// plus the minimum virtual bucket index of the records on it. Buckets are
// deliberately not kept sorted: a sorted insert must load another record
// to compare against, and at large populations that dependent load is a
// guaranteed cache miss on the insert critical path. Instead insert is a
// pure push-front touching only this entry, and the dequeue scan — which
// has to load the record it fires anyway — resolves ordering lazily. The
// cached minVB lets the hand's year test skip a bucket without loading
// any record. 16 bytes: four entries per cache line for the hand sweep.
type bucketEnt struct {
	head  *timerRec
	minVB int64
}

// calendar is the bucketed event queue. All fields are managed by the
// kernel; the year test uses exact integer virtual-bucket indices (vb)
// rather than accumulated float bucket edges, so ordering can never be
// broken by floating-point drift.
type calendar struct {
	ents  []bucketEnt
	mask  int64
	width float64
	invW  float64 // 1/width: vb mapping by multiply, off the division port
	hand  int64   // virtual bucket index the dequeue scan is at
	count int     // records in buckets, including cancelled ones
}

func (q *calendar) init(n int, width float64, hand int64) {
	if q.ents == nil || len(q.ents) != n {
		q.ents = make([]bucketEnt, n)
	}
	q.mask = int64(n - 1)
	q.width = width
	q.invW = 1 / width
	q.hand = hand
	q.count = 0
}

// vbOf maps a time to its virtual bucket under the current width,
// clamped to the far-future bucket and never behind the hand. Any
// monotone non-decreasing mapping preserves ordering (the in-bucket sort
// and the vb<=hand year test do the rest), so the multiply's rounding
// differences from an exact division are harmless.
func (q *calendar) vbOf(t float64) int64 {
	fv := t * q.invW
	vb := maxVB
	if fv < float64(maxVB) {
		vb = int64(fv)
	}
	if vb < q.hand {
		vb = q.hand
	}
	return vb
}

// insert files r into its bucket: an O(1) push-front that touches no
// record but r itself (which the caller just wrote and has in cache).
// Ordering is resolved lazily by the dequeue scan.
func (q *calendar) insert(r *timerRec) {
	r.vb = q.vbOf(r.time)
	e := &q.ents[r.vb&q.mask]
	r.next = e.head
	if e.head == nil || r.vb < e.minVB {
		e.minVB = r.vb
	}
	e.head = r
	q.count++
}

// locate advances the hand to the bucket holding the earliest record and
// returns its index, or -1 when the queue is empty. The year test is
// minVB <= hand: a bucket is due only in the year the hand is sweeping,
// never early, and the cached minVB answers it without loading a record.
// A full fruitless sweep (sparse or far-future queue) falls back to a
// direct minimum search over the cached indices and jumps the hand there.
// Correctness leans on vbOf being monotone: distinct vb values in play
// always map to distinct buckets (same vb ⇒ same bucket), so the bucket
// with the globally minimal vb contains every globally earliest record.
func (q *calendar) locate() (int64, int) {
	if q.count == 0 {
		return -1, 0
	}
	n := int64(len(q.ents))
	work := 0
	for i := int64(0); i < n; i++ {
		b := q.hand & q.mask
		if e := &q.ents[b]; e.head != nil && e.minVB <= q.hand {
			return b, work
		}
		q.hand++
		work++
	}
	minvb := int64(math.MaxInt64)
	for i := range q.ents {
		if e := &q.ents[i]; e.head != nil && e.minVB < minvb {
			minvb = e.minVB
		}
	}
	work += int(n)
	q.hand = minvb
	return minvb & q.mask, work
}

// collect drains every bucket into dst (for rebuilds and the heap
// fallback) and leaves the calendar empty.
func (q *calendar) collect(dst []*timerRec) []*timerRec {
	for i := range q.ents {
		for r := q.ents[i].head; r != nil; {
			next := r.next
			r.next = nil
			dst = append(dst, r)
			r = next
		}
		q.ents[i] = bucketEnt{}
	}
	q.count = 0
	return dst
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     float64
	seq     uint64
	stopped bool
	fired   uint64

	live int // scheduled, uncancelled events — O(1) Pending()
	dead int // cancelled records still occupying the queue

	cal    calendar
	heap   []*timerRec
	onHeap bool

	free    *timerRec   // recycled records; steady-state At/fire never allocates
	scratch []*timerRec // rebuild/compaction buffer, reused across resizes

	// opWork/opCount sample per-operation queue work for the heap
	// fallback detector (see workThreshold).
	opWork, opCount uint64
}

// chainPool parks the freelists of fully drained kernels for the next
// kernel to adopt — the sync.Pool discipline the wire codec uses for its
// buffers. Sweeps that build one kernel per run reuse one freelist chain
// across the whole sweep instead of reallocating every record.
var chainPool sync.Pool

// NewKernel returns a kernel with virtual clock at 0 and the default
// (calendar) event queue.
func NewKernel() *Kernel {
	return NewKernelQueue(QueueCalendar)
}

// NewKernelQueue returns a kernel using the given event-queue
// implementation. QueueHeap is the reference/baseline queue; QueueCalendar
// is the default used by NewKernel.
func NewKernelQueue(kind QueueKind) *Kernel {
	k := &Kernel{}
	k.cal.init(minBuckets, 1.0, 0)
	if kind == QueueHeap {
		k.onHeap = true
	}
	return k
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Pending returns the number of scheduled, uncancelled events. It is O(1):
// the kernel counts live events as they are scheduled, cancelled, and
// fired, so cancelled records still awaiting compaction are excluded
// without scanning the queue.
func (k *Kernel) Pending() int { return k.live }

// Fired returns the total number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// newRec takes a record from the freelist, adopting a drained kernel's
// parked chain when the local list is empty, and allocates only as a last
// resort.
func (k *Kernel) newRec() *timerRec {
	if k.free == nil {
		if c, _ := chainPool.Get().(*timerRec); c != nil {
			k.free = c
		}
	}
	if r := k.free; r != nil {
		k.free = r.next
		r.next = nil
		return r
	}
	return &timerRec{}
}

// recycle invalidates every outstanding handle to r (generation bump) and
// returns it to the freelist.
func (k *Kernel) recycle(r *timerRec) {
	r.gen++
	r.fn = nil
	r.cancelled = false
	r.next = k.free
	k.free = r
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: allowing it would silently reorder causality. Non-finite
// times panic too — an event at +Inf could never fire.
func (k *Kernel) At(t float64, fn func()) Timer {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", t))
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
	}
	k.seq++
	r := k.newRec()
	r.time, r.seq, r.fn = t, k.seq, fn
	k.live++
	if k.onHeap {
		k.heapPush(r)
	} else {
		k.cal.insert(r)
		k.noteWork(0)
		if !k.onHeap && k.cal.count > len(k.cal.ents) && len(k.cal.ents) < maxBuckets {
			k.rebuildCal()
		}
	}
	return Timer{k: k, rec: r, gen: r.gen, at: t}
}

// After schedules fn to run d seconds after the current virtual time.
// Negative d panics.
func (k *Kernel) After(d float64, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// noteWork feeds the heap-fallback detector and, on a sustained
// pathological average over a grown queue, demotes this kernel to the
// binary heap for the rest of its lifetime.
func (k *Kernel) noteWork(w int) {
	k.opWork += uint64(w)
	k.opCount++
	// The window closes after workSample operations — or early, the
	// moment a partial window has already burned a full window's work
	// budget (one degenerate bucket scan must not run 4096 more times
	// before the detector looks).
	if k.opCount < workSample && k.opWork <= workThreshold*workSample {
		return
	}
	if k.opWork > workThreshold*k.opCount && len(k.cal.ents) >= 1024 {
		k.fallbackToHeap()
	}
	k.opWork, k.opCount = 0, 0
}

// fallbackToHeap pours the calendar into the binary heap. One-way: a
// distribution that defeated the calendar once (far-future outliers
// stretching the width until near-term events share a bucket) would keep
// defeating it after every resample.
func (k *Kernel) fallbackToHeap() {
	recs := k.cal.collect(k.scratch[:0])
	k.scratch = recs[:0]
	k.heap = append(k.heap[:0], recs...)
	for i := len(k.heap)/2 - 1; i >= 0; i-- {
		k.siftDown(i)
	}
	k.onHeap = true
}

// rebuildCal resizes the calendar to the current population: the bucket
// count leads the population by 2x and the width is resampled from the
// pending time range targeting ~1 event per bucket, so the sorted-insert
// walk almost never compares more than one record. (A denser layout reads
// nicer on paper but the walk's pointer chases are cache misses — the
// profile says sparse-and-wide wins.)
func (k *Kernel) rebuildCal() {
	recs := k.cal.collect(k.scratch[:0])
	k.scratch = recs[:0]
	count := len(recs)
	n := minBuckets
	for n < 2*count && n < maxBuckets {
		n <<= 1
	}
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for _, r := range recs {
		if r.time < tmin {
			tmin = r.time
		}
		if r.time > tmax {
			tmax = r.time
		}
	}
	width := k.cal.width
	if count > 1 && tmax > tmin {
		width = (tmax - tmin) / float64(count)
	}
	if !(width > 0) || math.IsInf(width, 1) {
		width = 1
	}
	hand := int64(0)
	if fv := k.now * (1 / width); fv >= float64(maxVB) {
		hand = maxVB
	} else {
		hand = int64(fv)
	}
	k.cal.init(n, width, hand)
	for _, r := range recs {
		k.cal.insert(r)
	}
}

// compact removes every cancelled record from the queue and recycles it.
// Called from Cancel when dead records outnumber live ones, so a
// cancel-heavy run (speculation losers, hedge cancels) cannot bloat the
// queue with corpses waiting for their virtual time.
func (k *Kernel) compact() {
	if k.onHeap {
		kept := k.heap[:0]
		for _, r := range k.heap {
			if r.cancelled {
				k.recycle(r)
				continue
			}
			kept = append(kept, r)
		}
		for i := len(kept); i < len(k.heap); i++ {
			k.heap[i] = nil
		}
		k.heap = kept
		for i := len(k.heap)/2 - 1; i >= 0; i-- {
			k.siftDown(i)
		}
	} else {
		q := &k.cal
		for i := range q.ents {
			var head, tail *timerRec
			minvb := int64(math.MaxInt64)
			for r := q.ents[i].head; r != nil; {
				next := r.next
				if r.cancelled {
					q.count--
					k.recycle(r)
				} else {
					r.next = nil
					if tail == nil {
						head = r
					} else {
						tail.next = r
					}
					tail = r
					if r.vb < minvb {
						minvb = r.vb
					}
				}
				r = next
			}
			q.ents[i] = bucketEnt{head: head, minVB: minvb}
		}
	}
	k.dead = 0
	// A heavy cancellation wave may leave the calendar much larger than
	// its population; shrink it back toward the live count.
	k.maybeShrink()
}

// maybeShrink halves an oversized calendar after its population dropped.
func (k *Kernel) maybeShrink() {
	if !k.onHeap && len(k.cal.ents) > minBuckets && k.cal.count < len(k.cal.ents)/4 {
		k.rebuildCal()
	}
}

// scanBucket walks bucket b once: cancelled records are unlinked and
// recycled on the way, the cached minVB is rebuilt exactly, and the
// earliest live record due at the hand (vb <= hand) is returned — nil if
// the bucket holds only future-year records. The walk length is the work
// signal for the heap-fallback detector: a degenerate distribution that
// piles one bucket high shows up here as long scans.
func (k *Kernel) scanBucket(b int64) (*timerRec, int) {
	q := &k.cal
	e := &q.ents[b]
	var best, pred *timerRec
	minvb := int64(math.MaxInt64)
	work := 0
	for r := e.head; r != nil; {
		next := r.next
		if r.cancelled {
			if pred == nil {
				e.head = next
			} else {
				pred.next = next
			}
			r.next = nil
			q.count--
			k.dead--
			k.recycle(r)
		} else {
			if r.vb <= q.hand && (best == nil || recLess(r, best)) {
				best = r
			}
			if r.vb < minvb {
				minvb = r.vb
			}
			pred = r
		}
		r = next
		work++
	}
	e.minVB = minvb
	return best, work
}

// nextLive positions the queue at the earliest pending uncancelled
// record and returns it with its bucket index (-1 in heap mode) without
// removing it, recycling cancelled records it meets on the way. Returns
// a nil record when the queue is empty. The bucket index lets the run
// loops take the record afterwards without a second locate scan.
func (k *Kernel) nextLive() (*timerRec, int64) {
	for {
		if k.onHeap {
			if len(k.heap) == 0 {
				return nil, -1
			}
			r := k.heap[0]
			if !r.cancelled {
				return r, -1
			}
			k.heapPop()
			k.dead--
			k.recycle(r)
			continue
		}
		b, w := k.cal.locate()
		if b < 0 {
			return nil, -1
		}
		r, w2 := k.scanBucket(b)
		k.noteWork(w + w2)
		if k.onHeap {
			// The dequeue work signal just tripped the heap fallback;
			// the bucket index is stale, so restart in heap mode.
			continue
		}
		if r != nil {
			return r, b
		}
		// Every due record in the bucket was cancelled; the survivors are
		// future years, so the hand sweeps on.
	}
}

// takeLive unlinks the record nextLive just returned. In calendar mode
// the bucket is rescanned for the unlink and its minVB rebuilt — with the
// population spread at ~1 record per bucket both walks are trivially
// short, and nextLive already pulled the bucket's line into cache.
func (k *Kernel) takeLive(r *timerRec, b int64) {
	if b < 0 {
		k.heapPop()
		return
	}
	q := &k.cal
	e := &q.ents[b]
	var pred *timerRec
	for p := e.head; p != r; p = p.next {
		pred = p
	}
	if pred == nil {
		e.head = r.next
	} else {
		pred.next = r.next
	}
	r.next = nil
	q.count--
	minvb := int64(math.MaxInt64)
	for p := e.head; p != nil; p = p.next {
		if p.vb < minvb {
			minvb = p.vb
		}
	}
	e.minVB = minvb
}

// NextTime returns the virtual time of the earliest pending event, or
// +Inf when the queue is empty. It does not advance the clock.
func (k *Kernel) NextTime() float64 {
	if r, _ := k.nextLive(); r != nil {
		return r.time
	}
	return math.Inf(1)
}

// Stop makes the current Run call return after the executing event
// completes. Pending events remain scheduled.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until none remain or Stop is called. It returns the
// number of events executed by this call. A fully drained kernel parks
// its record freelist in a shared pool for the next kernel to adopt.
func (k *Kernel) Run() int {
	n := k.RunUntil(math.Inf(1))
	if k.live == 0 && k.dead == 0 && k.free != nil {
		chainPool.Put(k.free)
		k.free = nil
	}
	return n
}

// RunUntil executes events with time <= deadline, then advances the clock
// to deadline (if finite). It returns the number of events executed by
// this call.
func (k *Kernel) RunUntil(deadline float64) int {
	k.stopped = false
	n := 0
	for !k.stopped {
		r, b := k.nextLive()
		if r == nil || r.time > deadline {
			break
		}
		k.takeLive(r, b)
		k.now = r.time
		fn := r.fn
		k.live--
		k.recycle(r)
		fn()
		k.fired++
		n++
		k.maybeShrink()
	}
	if !math.IsInf(deadline, 1) && k.now < deadline {
		k.now = deadline
	}
	return n
}

// ---- binary heap (fallback + reference queue) ----

func (k *Kernel) heapPush(r *timerRec) {
	k.heap = append(k.heap, r)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !recLess(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

func (k *Kernel) heapPop() *timerRec {
	h := k.heap
	r := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	k.heap = h[:last]
	if last > 0 {
		k.siftDown(0)
	}
	return r
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && recLess(h[r], h[l]) {
			m = r
		}
		if !recLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
