package federation

import "continuum/internal/faas"

// Local federates in-process endpoints behind one faas.Invoker: each
// call goes to the LeastLoaded endpoint, its backlog being queue depth
// plus running invocations over its slot limit. It must not be empty.
type Local []*faas.Endpoint

// pick returns the least-loaded endpoint.
func (l Local) pick() *faas.Endpoint {
	var buf [16]Site // no allocation up to 16 endpoints
	sites := buf[:0]
	for _, ep := range l {
		sites = append(sites, Site{Backlog: int64(ep.QueueDepth()) + ep.Running(), Slots: ep.SlotLimit()})
	}
	return l[LeastLoaded(sites)]
}

// Invoke implements faas.Invoker.
func (l Local) Invoke(fn string, payload []byte) ([]byte, error) {
	return l.pick().Invoke(fn, payload)
}

// InvokeBatch sends a whole batch to one endpoint, so a faas.Batcher
// can sit in front of Local.
func (l Local) InvokeBatch(fn string, payloads [][]byte) ([][]byte, error) {
	return l.pick().InvokeBatch(fn, payloads)
}
