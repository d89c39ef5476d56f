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
// Event records are held by value in kernel-owned pages and named by an
// int32 index: bucket chains, the heap fallback and the freelist hold
// indices, not pointers, so a million pending events are a few large
// objects the collector scans in one sweep rather than a million it must
// trace. A fired or compacted record returns to the kernel's freelist,
// and a fully drained kernel parks its pages and its calendar's bucket
// array in a shared sync.Pool for the next kernel to adopt, so
// steady-state scheduling — and even whole-kernel-per-run sweeps —
// allocate nothing. A record's scheduling sequence number doubles as its
// generation: it is zeroed when the record is freed and never repeats in
// a kernel's lifetime, so a stale Timer can never cancel the record's
// next tenant.
package sim

import (
	"fmt"
	"math"
	"sync"
)

// timerRec is one event record. Records live by value in the kernel's
// pages and are named by index (Kernel.rec); index 0 names none. seq is
// the record's place in scheduling order and its generation: a Timer
// reaches its record only while their seqs agree, and freeing the record
// zeroes it.
type timerRec struct {
	next      int32 // bucket chain (calendar mode) or freelist link; 0 ends it
	cancelled bool
	vb        int64 // virtual bucket index = floor(time/width) at insert
	time      float64
	seq       uint64
	fn        func()
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
// A Timer names its record by index together with the record's sequence
// number. Records are reused after the event fires or its cancellation
// is compacted away, and a reused record carries a new sequence number,
// so Cancel after firing remains a safe no-op even when the record
// already holds a different event. A Timer only ever looks into its own
// kernel's storage: once that kernel has parked its pages for another
// to adopt, the handle finds nothing.
type Timer struct {
	k   *Kernel
	seq uint64
	idx int32
}

// rec returns the timer's record while its event is still pending, or
// nil once it fired, was cancelled or belongs to parked storage.
func (t Timer) rec() *timerRec {
	k := t.k
	if k == nil || t.idx >= k.used {
		return nil
	}
	if r := k.rec(t.idx); r.seq == t.seq && !r.cancelled {
		return r
	}
	return nil
}

// Cancel prevents the timer's event from firing. It reports whether the
// event was still pending; cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t Timer) Cancel() bool {
	r := t.rec()
	if r == nil {
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
func (t Timer) Pending() bool { return t.rec() != nil }

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

	// Record storage: a full page holds 1<<pageShift records (2.5 MB), so
	// a million pending events fill 16 pages. The first page starts at
	// firstPage records and doubles, by copying, until it is full; the
	// pages after it are full from the start and never move. maxPages
	// keeps every index an int32.
	pageShift = 16
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
	firstPage = 64
	maxPages  = 1<<(31-pageShift) - 1
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
	head  int32
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

// init empties the calendar into n buckets. The bucket array is resliced
// within its capacity when it is large enough, so a calendar that shrank
// regrows into the array it already has.
func (q *calendar) init(n int, width float64, hand int64) {
	if cap(q.ents) < n {
		q.ents = make([]bucketEnt, n)
	} else {
		q.ents = q.ents[:n]
		clear(q.ents)
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

// insert files record i (r) into its bucket: an O(1) push-front that
// touches no record but r itself (which the caller just wrote and has in
// cache). Ordering is resolved lazily by the dequeue scan.
func (q *calendar) insert(i int32, r *timerRec) {
	r.vb = q.vbOf(r.time)
	e := &q.ents[r.vb&q.mask]
	r.next = e.head
	if e.head == 0 || r.vb < e.minVB {
		e.minVB = r.vb
	}
	e.head = i
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
		if e := &q.ents[b]; e.head != 0 && e.minVB <= q.hand {
			return b, work
		}
		q.hand++
		work++
	}
	minvb := int64(math.MaxInt64)
	for i := range q.ents {
		if e := &q.ents[i]; e.head != 0 && e.minVB < minvb {
			minvb = e.minVB
		}
	}
	work += int(n)
	q.hand = minvb
	return minvb & q.mask, work
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
	heap   []heapEnt
	onHeap bool

	// Record storage: record i is pages[i>>pageShift][i&pageMask]. The
	// indices below used have been handed out, limit is the storage's
	// size, and free heads the list of fired and compacted records, so
	// steady-state At/fire never allocates. carrier is the empty pool
	// entry the storage was adopted from, reused to park it.
	pages   [][]timerRec
	used    int32
	limit   int32
	free    int32
	carrier *parked

	// takePred and takeRest are what the last scanBucket noted for
	// takeLive: the taken record's predecessor and the bucket's least
	// remaining vb.
	takePred int32
	takeRest int64

	// opWork/opCount sample per-operation queue work for the heap
	// fallback detector (see workThreshold).
	opWork, opCount uint64
}

// parked is a drained kernel's storage, every record in it free: its
// pages and its calendar's bucket array.
type parked struct {
	pages [][]timerRec
	ents  []bucketEnt
}

// parkedPool holds the storage of fully drained kernels for the next
// kernel to adopt — the sync.Pool discipline the wire codec uses for its
// buffers. Sweeps that build one kernel per run reuse one set of pages
// and one bucket array across the whole sweep.
var parkedPool sync.Pool

// NewKernel returns a kernel with virtual clock at 0 and the default
// (calendar) event queue.
func NewKernel() *Kernel {
	return NewKernelQueue(QueueCalendar)
}

// NewKernelQueue returns a kernel using the given event-queue
// implementation. QueueHeap is the reference/baseline queue; QueueCalendar
// is the default used by NewKernel.
func NewKernelQueue(kind QueueKind) *Kernel {
	k := &Kernel{onHeap: kind == QueueHeap}
	k.cal.width = 1
	k.adopt()
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

// rec returns record i. The pointer is good until the next call that can
// schedule: growing the first page moves it.
func (k *Kernel) rec(i int32) *timerRec { return recAt(k.pages, i) }

// recAt is rec for loops that hold the page table in a local.
func recAt(pages [][]timerRec, i int32) *timerRec {
	return &pages[uint32(i)>>pageShift][uint32(i)&pageMask]
}

// newRec hands out a record: the freelist's head, else the next
// never-used slot, growing the storage when it is full.
func (k *Kernel) newRec() (int32, *timerRec) {
	if i := k.free; i != 0 {
		r := k.rec(i)
		k.free = r.next
		return i, r
	}
	if k.used == k.limit {
		k.grow()
	}
	i := k.used
	k.used++
	return i, k.rec(i)
}

// freeRec returns record i (r) to the freelist. Zeroing seq makes every
// handle to it inert; dropping fn releases the callback's captures.
func (k *Kernel) freeRec(i int32, r *timerRec) {
	r.seq, r.fn, r.cancelled = 0, nil, false
	r.next = k.free
	k.free = i
}

// adopt gives a kernel without storage a drained kernel's parked pages
// and bucket array, or else a first page of firstPage records, and sets
// its empty calendar to the minimum size.
func (k *Kernel) adopt() {
	if p, _ := parkedPool.Get().(*parked); p != nil {
		k.pages, k.cal.ents, k.carrier = p.pages, p.ents, p
		p.pages, p.ents = nil, nil
	} else {
		k.pages = [][]timerRec{make([]timerRec, firstPage)}
	}
	k.cal.init(minBuckets, k.cal.width, k.cal.hand)
	k.used, k.free = 1, 0 // index 0 names no record
	k.setLimit()
}

// setLimit records the storage's size: every page but the last is full.
func (k *Kernel) setLimit() {
	n := int32(len(k.pages))
	k.limit = (n-1)<<pageShift + int32(len(k.pages[n-1]))
}

// grow makes room for one more record. A kernel that parked its storage
// adopts new storage; otherwise the first page doubles by copying until
// it is full, and full pages are added after it.
func (k *Kernel) grow() {
	switch n := len(k.pages); {
	case n == 0:
		k.adopt()
		return
	case n == 1 && len(k.pages[0]) < pageSize:
		p := make([]timerRec, 2*len(k.pages[0]))
		copy(p, k.pages[0])
		k.pages[0] = p
	case n == maxPages:
		panic(fmt.Sprintf("sim: more than %d events pending", maxPages<<pageShift))
	default:
		k.pages = append(k.pages, make([]timerRec, pageSize))
	}
	k.setLimit()
}

// park hands a drained kernel's storage to parkedPool. The kernel keeps
// no reference to it — a Timer it issued finds no record — and adopts
// storage again when it next schedules.
func (k *Kernel) park() {
	p := k.carrier
	if p == nil {
		p = new(parked)
	}
	p.pages, p.ents = k.pages, k.cal.ents
	k.pages, k.cal.ents, k.carrier = nil, nil, nil
	k.used, k.limit, k.free = 0, 0, 0
	parkedPool.Put(p)
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
	i, r := k.newRec()
	r.time, r.seq, r.fn = t, k.seq, fn
	k.live++
	if k.onHeap {
		k.heapPush(heapEnt{time: t, seq: k.seq, i: i})
	} else {
		k.cal.insert(i, r)
		k.noteWork(0)
		if !k.onHeap && k.cal.count > len(k.cal.ents) && len(k.cal.ents) < maxBuckets {
			k.rebuildCal()
		}
	}
	return Timer{k: k, seq: k.seq, idx: i}
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

// chain unlinks every record in the calendar into one list, linked by
// next, and returns its head and the records' time range; the caller
// re-initialises the buckets. Of the two routes it takes the shorter: a
// sequential pass over the storage's handed-out slots (a growing queue,
// whose storage is all in use) or a walk of every bucket and its chain (a
// queue that drained from a much larger population, whose storage is
// mostly free). Both gather the same records, cancelled ones included.
func (k *Kernel) chain() (head int32, tmin, tmax float64) {
	tmin, tmax = math.Inf(1), math.Inf(-1)
	link := func(i int32, r *timerRec) {
		r.next = head
		head = i
		if r.time < tmin {
			tmin = r.time
		}
		if r.time > tmax {
			tmax = r.time
		}
	}
	if int(k.used) <= len(k.cal.ents)+k.cal.count {
		for p, page := range k.pages {
			base := int32(p) << pageShift
			for j := range page {
				i := base + int32(j)
				if i >= k.used {
					break
				}
				if r := &page[j]; r.seq != 0 {
					link(i, r)
				}
			}
		}
	} else {
		pages := k.pages
		for b := range k.cal.ents {
			for i := k.cal.ents[b].head; i != 0; {
				r := recAt(pages, i)
				next := r.next
				link(i, r)
				i = next
			}
		}
	}
	return head, tmin, tmax
}

// fallbackToHeap pours the calendar into the binary heap. One-way: a
// distribution that defeated the calendar once (far-future outliers
// stretching the width until near-term events share a bucket) would keep
// defeating it after every resample.
func (k *Kernel) fallbackToHeap() {
	head, _, _ := k.chain()
	clear(k.cal.ents)
	k.cal.count = 0
	k.heap = k.heap[:0]
	for i := head; i != 0; {
		r := k.rec(i)
		k.heap = append(k.heap, heapEnt{time: r.time, seq: r.seq, i: i})
		i = r.next
	}
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
	count := k.cal.count
	head, tmin, tmax := k.chain()
	n := minBuckets
	for n < 2*count && n < maxBuckets {
		n <<= 1
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
	pages := k.pages
	for i := head; i != 0; {
		r := recAt(pages, i)
		next := r.next
		k.cal.insert(i, r)
		i = next
	}
}

// compact removes every cancelled record from the queue and recycles it.
// Called from Cancel when dead records outnumber live ones, so a
// cancel-heavy run (speculation losers, hedge cancels) cannot bloat the
// queue with corpses waiting for their virtual time.
func (k *Kernel) compact() {
	pages := k.pages
	if k.onHeap {
		kept := k.heap[:0]
		for _, h := range k.heap {
			if r := recAt(pages, h.i); r.cancelled {
				k.freeRec(h.i, r)
				continue
			}
			kept = append(kept, h)
		}
		k.heap = kept
		for i := len(k.heap)/2 - 1; i >= 0; i-- {
			k.siftDown(i)
		}
	} else {
		q := &k.cal
		for b := range q.ents {
			var head int32
			var tail *timerRec
			minvb := int64(math.MaxInt64)
			for i := q.ents[b].head; i != 0; {
				r := recAt(pages, i)
				next := r.next
				if r.cancelled {
					q.count--
					k.freeRec(i, r)
				} else {
					r.next = 0
					if tail == nil {
						head = i
					} else {
						tail.next = i
					}
					tail = r
					if r.vb < minvb {
						minvb = r.vb
					}
				}
				i = next
			}
			q.ents[b] = bucketEnt{head: head, minVB: minvb}
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
// earliest live record due at the hand (vb <= hand) is returned — index
// 0 if the bucket holds only future-year records. It also notes, for
// takeLive, that record's predecessor on the chain and the least vb of
// the bucket's other records, so taking it needs no second walk. The
// walk length is the work signal for the heap-fallback detector: a
// degenerate distribution that piles one bucket high shows up here as
// long scans.
func (k *Kernel) scanBucket(b int64) (int32, *timerRec, int) {
	q := &k.cal
	e := &q.ents[b]
	pages := k.pages
	var best, pred, bestPred int32
	var bestRec, predRec *timerRec
	rest := int64(math.MaxInt64)
	work := 0
	for i := e.head; i != 0; {
		r := recAt(pages, i)
		next := r.next
		if r.cancelled {
			if predRec == nil {
				e.head = next
			} else {
				predRec.next = next
			}
			q.count--
			k.dead--
			k.freeRec(i, r)
		} else {
			if r.vb <= q.hand && (bestRec == nil || recLess(r, bestRec)) {
				if bestRec != nil && bestRec.vb < rest {
					rest = bestRec.vb // the old best joins the rest
				}
				best, bestRec, bestPred = i, r, pred
			} else if r.vb < rest {
				rest = r.vb
			}
			pred, predRec = i, r
		}
		i = next
		work++
	}
	k.takePred, k.takeRest = bestPred, rest
	e.minVB = rest
	if bestRec != nil && bestRec.vb < rest {
		e.minVB = bestRec.vb
	}
	return best, bestRec, work
}

// nextLive positions the queue at the earliest pending uncancelled
// record and returns its index and record with its bucket (-1 in heap
// mode) without removing it, recycling cancelled records it meets on the
// way. The index is 0 when the queue is empty. The bucket lets the run
// loop take the record afterwards without a second locate scan.
func (k *Kernel) nextLive() (int32, *timerRec, int64) {
	for {
		if k.onHeap {
			if len(k.heap) == 0 {
				return 0, nil, -1
			}
			i := k.heap[0].i
			r := k.rec(i)
			if !r.cancelled {
				return i, r, -1
			}
			k.heapPop()
			k.dead--
			k.freeRec(i, r)
			continue
		}
		b, w := k.cal.locate()
		if b < 0 {
			return 0, nil, -1
		}
		i, r, w2 := k.scanBucket(b)
		k.noteWork(w + w2)
		if k.onHeap {
			// The dequeue work signal just tripped the heap fallback;
			// the bucket index is stale, so restart in heap mode.
			continue
		}
		if i != 0 {
			return i, r, b
		}
		// Every due record in the bucket was cancelled; the survivors are
		// future years, so the hand sweeps on.
	}
}

// takeLive unlinks record i (r), which nextLive just returned from
// bucket b, with what scanBucket noted about the chain.
func (k *Kernel) takeLive(i int32, r *timerRec, b int64) {
	if b < 0 {
		k.heapPop()
		return
	}
	q := &k.cal
	e := &q.ents[b]
	if k.takePred == 0 {
		e.head = r.next
	} else {
		k.rec(k.takePred).next = r.next
	}
	e.minVB = k.takeRest
	q.count--
}

// NextTime returns the virtual time of the earliest pending event, or
// +Inf when the queue is empty. It does not advance the clock.
func (k *Kernel) NextTime() float64 {
	if i, r, _ := k.nextLive(); i != 0 {
		return r.time
	}
	return math.Inf(1)
}

// Stop makes the current Run call return after the executing event
// completes. Pending events remain scheduled.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until none remain or Stop is called. It returns the
// number of events executed by this call. A fully drained kernel parks
// its storage in a shared pool for the next kernel to adopt.
func (k *Kernel) Run() int {
	n := k.RunUntil(math.Inf(1))
	if k.live == 0 && k.dead == 0 && k.pages != nil {
		k.park()
	}
	return n
}

// RunUntil executes events with time <= deadline, then advances the clock
// to deadline (if finite). It returns the number of events executed by
// this call.
func (k *Kernel) RunUntil(deadline float64) int {
	n := k.runTo(deadline)
	if !math.IsInf(deadline, 1) && k.now < deadline {
		k.now = deadline
	}
	return n
}

// runTo executes events with time <= deadline until none is left or Stop
// is called, leaving the clock at the last event's time. The record is
// freed before its callback runs, which may schedule into its slot.
func (k *Kernel) runTo(deadline float64) int {
	k.stopped = false
	n := 0
	for !k.stopped {
		i, r, b := k.nextLive()
		if i == 0 || r.time > deadline {
			break
		}
		k.takeLive(i, r, b)
		k.now = r.time
		fn := r.fn
		k.live--
		k.freeRec(i, r)
		fn()
		k.fired++
		n++
		k.maybeShrink()
	}
	return n
}

// ---- binary heap (fallback + reference queue) ----

// heapEnt is one heap slot: a record's index with a copy of its
// (time, seq) key, so sifting compares slots without loading records.
type heapEnt struct {
	time float64
	seq  uint64
	i    int32
}

func (a heapEnt) less(b heapEnt) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (k *Kernel) heapPush(e heapEnt) {
	k.heap = append(k.heap, e)
	h := k.heap
	j := len(h) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !h[j].less(h[parent]) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
}

func (k *Kernel) heapPop() {
	h := k.heap
	last := len(h) - 1
	h[0] = h[last]
	k.heap = h[:last]
	if last > 0 {
		k.siftDown(0)
	}
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
		if r := l + 1; r < n && h[r].less(h[l]) {
			m = r
		}
		if !h[m].less(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
