package wire

import "context"

// A relay forwards a payload without keeping it, so the buffers a large
// routed invoke arrives in can be used again instead of collected.
//
// The Server offers each invoke whose payload arrived in a buffer of
// its own (a body over connReadBuf, see readFrame) to its invoker,
// through the invoke's context. ReliableClient.InvokeRouted, the
// router's forwarding path, takes the offer when its call was clean:
// it succeeded, no hedge arm was launched, and every failed attempt was
// answered with an error response, so no goroutine can still be reading
// the payload. Taking the offer also hands over the buffer the
// daemon's response was decoded into. Once the response frame to the
// caller is written, the Server gives each buffer back to the
// connection it was read on, for that connection's next large frame. A
// relay that hedged, timed out or lost a downstream connection leaves
// both to the GC, and so does every invoker that is not a relay: daemon
// handlers and Client callers own the payloads they receive.
//
// An invoker that wraps a router (to time it, say) must not keep the
// payload or the bytes it returns past its own return.

// relayOffer is one invoke's offer. It is the invoke's context too, so
// an offer costs one allocation.
type relayOffer struct {
	context.Context
	req   *frameBody // the buffer the request payload points into
	out   *frameBody // the buffer the returned bytes point into, nil if none
	taken bool
}

type relayKey struct{}

// Value finds the offer under relayKey and defers every other key to the
// invoke's context.
func (o *relayOffer) Value(key any) any {
	if key == (relayKey{}) {
		return o
	}
	return o.Context.Value(key)
}

// relayOfferFrom returns the offer ctx carries, or nil.
func relayOfferFrom(ctx context.Context) *relayOffer {
	o, _ := ctx.Value(relayKey{}).(*relayOffer)
	return o
}

// take records a clean relay: the payload was forwarded and not kept,
// and the returned bytes point into out (nil if they have no buffer of
// their own).
func (o *relayOffer) take(out *frameBody) {
	o.taken, o.out = true, out
}

// release recycles both buffers if a relay took the offer. The Server
// calls it once the response frame is written. Nil-safe.
func (o *relayOffer) release() {
	if o != nil && o.taken {
		o.req.recycle()
		o.out.recycle()
	}
}
