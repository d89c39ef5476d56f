package faas

// WarmPool holds one function's idle warm containers at one endpoint.
// It reads no clock: every time is seconds on the caller's clock —
// Endpoint's monotonic wall clock, or a simulator's kernel. A take
// reuses the newest idle container and drops, as it passes them, those
// idle for longer than the TTL (a TTL of 0 never expires); a put parks
// the container unless the pool already holds its bound.
type WarmPool struct {
	ttl  float64   // seconds an idle container stays warm; 0 = forever
	max  int       // idle containers held at most
	idle []float64 // when each idle container went idle, newest last
}

// NewWarmPool returns an empty pool whose containers stay warm for ttl
// seconds of idleness (0 = forever) and that holds at most limit idle
// containers.
func NewWarmPool(ttl float64, limit int) *WarmPool {
	return &WarmPool{ttl: ttl, max: limit}
}

// Take reports whether a warm container is idle at now, removing it if
// so. A false means the call pays a cold start.
func (p *WarmPool) Take(now float64) bool {
	for len(p.idle) > 0 {
		since := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		if p.ttl == 0 || now-since <= p.ttl {
			return true
		}
	}
	return false
}

// Put parks a container that went idle at now.
func (p *WarmPool) Put(now float64) {
	if len(p.idle) < p.max {
		p.idle = append(p.idle, now)
	}
}
