package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestCeilingDoublesThenCaps(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Ceiling(i); got != w {
			t.Errorf("Ceiling(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestCeilingOverflowSafe(t *testing.T) {
	p := Policy{BaseDelay: time.Hour, MaxDelay: 24 * time.Hour}
	// 2^200 hours overflows int64 nanoseconds many times over; the cap
	// must still hold.
	if got := p.Ceiling(200); got != 24*time.Hour {
		t.Fatalf("Ceiling(200) = %v, want cap", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Policy{
		BaseDelay: time.Millisecond,
		MaxDelay:  16 * time.Millisecond,
		Rand:      rng.Float64,
	}
	for retry := 0; retry < 10; retry++ {
		ceil := p.Ceiling(retry)
		for i := 0; i < 1000; i++ {
			d := p.Backoff(retry)
			if d < 0 || d > ceil {
				t.Fatalf("Backoff(%d) = %v outside [0, %v]", retry, d, ceil)
			}
			if d > p.MaxDelay {
				t.Fatalf("Backoff(%d) = %v exceeds cap %v", retry, d, p.MaxDelay)
			}
		}
	}
}

func TestBackoffJitterSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Policy{BaseDelay: time.Second, MaxDelay: time.Second, Rand: rng.Float64}
	lo, hi := 0, 0
	for i := 0; i < 1000; i++ {
		if d := p.Backoff(0); d < 500*time.Millisecond {
			lo++
		} else {
			hi++
		}
	}
	// Full jitter is uniform: both halves must be well populated.
	if lo < 300 || hi < 300 {
		t.Fatalf("jitter not spread: %d below midpoint, %d above", lo, hi)
	}
}

func TestDoSucceedsAfterRetries(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	calls := 0
	err := p.Do(context.Background(), func(attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	calls := 0
	boom := errors.New("boom")
	if err := p.Do(context.Background(), func(int) error { calls++; return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	fatal := errors.New("fatal")
	p := Policy{
		MaxAttempts: 5,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Retryable:   func(err error) bool { return !errors.Is(err, fatal) },
	}
	calls := 0
	if err := p.Do(context.Background(), func(int) error { calls++; return fatal }); !errors.Is(err, fatal) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestDoRespectsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{MaxAttempts: 5}
	calls := 0
	if err := p.Do(ctx, func(int) error { calls++; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if calls != 0 {
		t.Fatalf("fn ran %d times under a canceled context", calls)
	}
}

func TestDoCancelInterruptsBackoffSleep(t *testing.T) {
	// A long backoff must not delay cancellation: cancel mid-sleep and
	// require a prompt return with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{
		MaxAttempts: 2,
		BaseDelay:   10 * time.Second,
		MaxDelay:    10 * time.Second,
		Rand:        func() float64 { return 0.99 }, // near-ceiling sleep
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.Do(ctx, func(int) error { return errors.New("transient") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v to interrupt backoff", elapsed)
	}
}

func TestSleepZeroDelayChecksContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{Rand: func() float64 { return 0 }}
	if err := p.sleepFor(ctx, p.Backoff(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// hintedErr is a retryable error carrying a server Retry-After hint.
type hintedErr struct{ after time.Duration }

func (e *hintedErr) Error() string             { return fmt.Sprintf("overloaded, retry after %v", e.after) }
func (e *hintedErr) RetryAfter() time.Duration { return e.after }

func TestRetryAfterHint(t *testing.T) {
	if got := RetryAfterHint(errors.New("plain")); got != 0 {
		t.Fatalf("hint on plain error = %v", got)
	}
	wrapped := fmt.Errorf("attempt 3: %w", &hintedErr{after: 40 * time.Millisecond})
	if got := RetryAfterHint(wrapped); got != 40*time.Millisecond {
		t.Fatalf("hint = %v, want 40ms", got)
	}
}

// TestDoHonorsRetryAfter: the server hint floors the jittered backoff —
// with Rand pinned to 0 the policy alone would retry immediately, so any
// observed delay is the hint being honored.
func TestDoHonorsRetryAfter(t *testing.T) {
	p := Policy{
		MaxAttempts: 2,
		BaseDelay:   time.Nanosecond,
		Rand:        func() float64 { return 0 }, // jittered backoff = 0
	}
	const hint = 50 * time.Millisecond
	start := time.Now()
	err := p.Do(context.Background(), func(attempt int) error {
		if attempt == 0 {
			return &hintedErr{after: hint}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Fatalf("retried after %v, want >= the server's %v hint", elapsed, hint)
	}

	// And without a hint the pinned-zero backoff really is immediate
	// (the control that makes the assertion above meaningful).
	start = time.Now()
	err = p.Do(context.Background(), func(attempt int) error {
		if attempt == 0 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > hint/2 {
		t.Fatalf("hintless retry slept %v", elapsed)
	}
}
