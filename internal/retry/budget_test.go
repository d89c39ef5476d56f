package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBudgetSpendAndRefill(t *testing.T) {
	b := NewBudget(BudgetConfig{Tokens: 2, Ratio: 0.5})
	if !b.Spend() || !b.Spend() {
		t.Fatal("a full bucket must grant its capacity")
	}
	if b.Spend() {
		t.Fatal("empty bucket granted a token")
	}
	// Two successes at ratio 0.5 earn one retry back.
	b.Success()
	if b.Spend() {
		t.Fatalf("half a token granted (tokens = %v)", b.tokens)
	}
	b.Success()
	if !b.Spend() {
		t.Fatal("refilled bucket denied a token")
	}
	// Refill caps at the bucket size.
	for i := 0; i < 100; i++ {
		b.Success()
	}
	if got := b.tokens; got != 2 {
		t.Fatalf("Tokens() = %v after overfill, want cap 2", got)
	}
}

func TestBudgetDefaultsAndNilSafety(t *testing.T) {
	b := NewBudget(BudgetConfig{})
	for i := 0; i < DefaultBudgetTokens; i++ {
		if !b.Spend() {
			t.Fatalf("default bucket exhausted after %d spends", i)
		}
	}
	if b.Spend() {
		t.Fatal("default bucket over-granted")
	}

	var nilB *Budget
	if !nilB.Spend() {
		t.Fatal("nil budget must be unlimited")
	}
	nilB.Success() // must not panic
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
