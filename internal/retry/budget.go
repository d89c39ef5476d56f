package retry

import (
	"errors"
	"sync"
)

// Budget is a token-bucket retry budget (the gRPC/Finagle scheme): every
// retry — and every hedge arm, which is just a retry launched early —
// spends one token, and successful first attempts slowly refill the
// bucket at Ratio tokens per success. Under normal operation the bucket
// stays full and retries are free; when an endpoint browns out, the
// bucket drains and the whole client fleet's retry traffic throttles to
// Ratio × its success rate instead of multiplying the overload. Share
// one Budget across everything that talks to the same backend.
//
// A nil *Budget is a valid unlimited budget: Spend always grants,
// Success does nothing.
type Budget struct {
	cfg BudgetConfig

	mu     sync.Mutex
	tokens float64
}

// Default budget parameters: a burst of ten free retries, then one
// retry earned per ten successes.
const (
	DefaultBudgetTokens = 10
	DefaultBudgetRatio  = 0.1
)

// ErrBudgetExhausted marks a retry (or hedge) suppressed because the
// budget is empty. It is deliberately non-retryable: the budget exists
// to stop retry storms, so running out must fail the call, not queue
// another attempt.
var ErrBudgetExhausted = errors.New("retry: budget exhausted")

// BudgetConfig parameterizes a Budget; the zero value uses the defaults.
type BudgetConfig struct {
	// Tokens is the bucket capacity and initial fill (<= 0 means
	// DefaultBudgetTokens).
	Tokens float64
	// Ratio is how many tokens each success refills, capped at Tokens
	// (<= 0 means DefaultBudgetRatio).
	Ratio float64
}

func (c BudgetConfig) tokens() float64 {
	if c.Tokens <= 0 {
		return DefaultBudgetTokens
	}
	return c.Tokens
}

func (c BudgetConfig) ratio() float64 {
	if c.Ratio <= 0 {
		return DefaultBudgetRatio
	}
	return c.Ratio
}

// NewBudget returns a full bucket.
func NewBudget(cfg BudgetConfig) *Budget {
	return &Budget{cfg: cfg, tokens: cfg.tokens()}
}

// Spend takes one token, reporting false (and taking nothing) when
// fewer than one token remains. Nil-safe: a nil budget always grants.
func (b *Budget) Spend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Success refills Ratio tokens (capped at the bucket size). Call it on
// successful attempts — including successful retries, so a recovering
// backend earns its retry traffic back.
func (b *Budget) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.cfg.ratio()
	if full := b.cfg.tokens(); b.tokens > full {
		b.tokens = full
	}
}
