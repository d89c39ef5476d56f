// Package retry provides the reliability primitives the live serving
// path shares: retry with exponential backoff and full jitter, and a
// per-endpoint circuit breaker. The simulator models failure with
// internal/fault and core.Options; this package gives the real wire/faas
// stack the matching survival behavior, so "kill an endpoint mid-run"
// degrades to retries and failover instead of hung or lost requests.
//
// The breaker distinguishes failure from abandonment: Failure counts
// toward tripping, while Cancel records neither success nor failure —
// it only returns an admitted half-open probe slot. Hedged callers use
// Cancel for the losing arm of a hedge so that deliberately abandoning
// a slow-but-healthy endpoint never trips its breaker.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"continuum/internal/metrics"
)

// Default policy parameters, chosen so a zero-value Policy behaves
// sanely: a handful of quick attempts that never sleep longer than a
// second.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 10 * time.Millisecond
	DefaultMaxDelay    = time.Second
)

// Policy configures retry with exponential backoff and full jitter
// (delay for attempt k is uniform in [0, min(MaxDelay, BaseDelay·2^k)],
// the AWS "full jitter" scheme — it decorrelates synchronized retry
// storms better than equal or no jitter).
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (<= 0 means DefaultMaxAttempts).
	MaxAttempts int
	// BaseDelay is the backoff ceiling for the first retry (<= 0 means
	// DefaultBaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling (<= 0 means DefaultMaxDelay).
	MaxDelay time.Duration
	// Retryable classifies errors; nil retries every error.
	Retryable func(error) bool
	// Rand supplies jitter draws in [0, 1); nil uses a locked global
	// source. Inject a deterministic source in tests.
	Rand func() float64
}

var (
	globalMu  sync.Mutex
	globalRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func globalFloat() float64 {
	globalMu.Lock()
	defer globalMu.Unlock()
	return globalRng.Float64()
}

func (p Policy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

func (p Policy) rand() float64 {
	if p.Rand != nil {
		return p.Rand()
	}
	return globalFloat()
}

func (p Policy) retryable(err error) bool {
	return p.Retryable == nil || p.Retryable(err)
}

// Ceiling returns the backoff ceiling for the given retry (0-based): the
// largest delay Backoff may draw. It is min(MaxDelay, BaseDelay·2^retry),
// overflow-safe for large retry counts.
func (p Policy) Ceiling(retry int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	cap := p.MaxDelay
	if cap <= 0 {
		cap = DefaultMaxDelay
	}
	d := base
	for i := 0; i < retry; i++ {
		d *= 2
		if d >= cap || d < 0 { // d < 0: overflow
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// Backoff draws the jittered delay before the given retry (0-based for
// the first retry): uniform in [0, Ceiling(retry)].
func (p Policy) Backoff(retry int) time.Duration {
	return time.Duration(p.rand() * float64(p.Ceiling(retry)))
}

func (p Policy) sleepFor(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryAfterHint extracts a server-supplied backoff hint from err: any
// error in the chain exposing RetryAfter() time.Duration (the wire
// layer's RemoteError carries the Response.RetryAfterMS of a shed
// request this way). Zero means no hint.
func RetryAfterHint(err error) time.Duration {
	var ra interface{ RetryAfter() time.Duration }
	if errors.As(err, &ra) {
		return ra.RetryAfter()
	}
	return 0
}

// Do runs fn up to MaxAttempts times, sleeping the jittered backoff
// between attempts. It returns nil on the first success, the last error
// once attempts are exhausted or fn returns a non-retryable error, and
// ctx.Err() if the context ends first (checked before every attempt and
// during every backoff sleep). fn receives the 0-based attempt number.
//
// When a retryable error carries a Retry-After hint (see
// RetryAfterHint), the hint floors the backoff: an overloaded server's
// "come back in 40ms" overrides a jittered draw that would have retried
// sooner, so backpressure propagates instead of being re-amplified.
func (p Policy) Do(ctx context.Context, fn func(attempt int) error) error {
	var err error
	for attempt := 0; attempt < p.maxAttempts(); attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(attempt); err == nil {
			return nil
		}
		if !p.retryable(err) {
			return err
		}
		if attempt+1 < p.maxAttempts() {
			d := p.Backoff(attempt)
			if hint := RetryAfterHint(err); hint > d {
				d = hint
			}
			if serr := p.sleepFor(ctx, d); serr != nil {
				return serr
			}
		}
	}
	return err
}

// HedgeDelay is the hedge-delay rule of the live client and the
// simulator's engine, in the latency histogram's seconds: no hedge until
// lat holds 50 samples, then its q-quantile, floored at 1 ms so a burst
// of fast calls cannot make every call hedge.
func HedgeDelay(lat *metrics.Histogram, q float64) (float64, bool) {
	if lat.Count() < 50 {
		return 0, false
	}
	return max(lat.Quantile(q), 0.001), true
}
