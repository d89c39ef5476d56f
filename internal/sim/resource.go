package sim

import "fmt"

// Resource models a counted resource (cores, channels, container slots)
// inside a simulation. Acquire requests are granted FIFO; a request blocks
// (its callback is deferred) until enough units are free.
type Resource struct {
	k        *Kernel
	name     string
	capacity int64
	inUse    int64
	waiters  []acquireReq // pending requests, oldest first

	// Grants counts successful acquisitions; MaxInUse tracks the high-water
	// mark, useful for utilization reporting.
	Grants   uint64
	MaxInUse int64
}

type acquireReq struct {
	n  int64
	fn func()
}

// NewResource creates a resource with the given capacity in units.
func NewResource(k *Kernel, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d <= 0", name, capacity))
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// Capacity returns total units.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns currently held units.
func (r *Resource) InUse() int64 { return r.inUse }

// QueueLen returns the number of pending acquire requests.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Acquire requests n units; fn runs (immediately, synchronously) once the
// units are granted. Requests exceeding capacity panic since they can never
// be satisfied. A request granted at once allocates nothing.
func (r *Resource) Acquire(n int64, fn func()) {
	if n <= 0 {
		panic(fmt.Sprintf("sim: acquire %d <= 0 units of %q", n, r.name))
	}
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d > capacity %d of %q", n, r.capacity, r.name))
	}
	req := acquireReq{n: n, fn: fn}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.grant(req)
		return
	}
	r.waiters = append(r.waiters, req)
}

func (r *Resource) grant(req acquireReq) {
	r.inUse += req.n
	if r.inUse > r.MaxInUse {
		r.MaxInUse = r.inUse
	}
	r.Grants++
	req.fn()
}

// Release returns n units and grants as many queued requests as now fit,
// in FIFO order (no overtaking: a large request at the head blocks smaller
// ones behind it, preserving fairness).
func (r *Resource) Release(n int64) {
	if n <= 0 {
		panic(fmt.Sprintf("sim: release %d <= 0 units of %q", n, r.name))
	}
	if n > r.inUse {
		panic(fmt.Sprintf("sim: release %d > in-use %d of %q", n, r.inUse, r.name))
	}
	r.inUse -= n
	for len(r.waiters) > 0 {
		head := r.waiters[0]
		if r.inUse+head.n > r.capacity {
			break
		}
		// Clear the granted slot: the backing array outlives it, and
		// would keep the callback and all it captures reachable.
		r.waiters[0] = acquireReq{}
		r.waiters = r.waiters[1:]
		r.grant(head)
	}
}
