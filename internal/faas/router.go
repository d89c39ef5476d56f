package faas

import "context"

// Router federates endpoints behind one Invoker, sending each call to the
// endpoint with the lowest running/capacity ratio — funcX's default
// heuristic.
type Router struct {
	eps []*Endpoint
}

// NewRouter builds a router over endpoints.
func NewRouter(eps ...*Endpoint) *Router {
	if len(eps) == 0 {
		panic("faas: router needs at least one endpoint")
	}
	return &Router{eps: eps}
}

// pick selects the least-loaded endpoint; ties go to the earliest.
func (r *Router) pick() *Endpoint {
	best := r.eps[0]
	bestLoad := float64(best.Running()) / float64(best.Capacity())
	for _, ep := range r.eps[1:] {
		load := float64(ep.Running()) / float64(ep.Capacity())
		if load < bestLoad {
			best, bestLoad = ep, load
		}
	}
	return best
}

// Invoke routes one invocation.
func (r *Router) Invoke(fn string, payload []byte) ([]byte, error) {
	return r.pick().Invoke(fn, payload)
}

// InvokeContext routes one invocation under ctx.
func (r *Router) InvokeContext(ctx context.Context, fn string, payload []byte) ([]byte, error) {
	return r.pick().InvokeContext(ctx, fn, payload)
}

// InvokeBatch routes a whole batch to one endpoint.
func (r *Router) InvokeBatch(fn string, payloads [][]byte) ([][]byte, error) {
	return r.pick().InvokeBatch(fn, payloads)
}
