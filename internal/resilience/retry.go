package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// ErrBudgetExhausted marks a retry suppressed because the client's retry
// budget ran dry. The wrapped error chain also carries the last attempt's
// failure, so callers can classify both. Match with errors.Is.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// BudgetConfig tunes a per-client retry budget (a token bucket in the style
// of Finagle's RetryBudget): every first attempt deposits Ratio tokens, and
// every retry withdraws one, so a client's sustained retry volume is capped
// at Ratio times its request volume no matter how hard its requests fail.
type BudgetConfig struct {
	// Ratio is the retry credit earned per first attempt. Values <= 0
	// select 0.1 (one retry per ten requests, sustained).
	Ratio float64
	// Cap bounds the banked credit, so an idle client cannot save up a
	// retry storm. Values <= 0 select 10.
	Cap float64
}

// Budget is one client's retry allowance. The zero value is unusable; use
// NewBudget. A nil *Budget never limits retries.
type Budget struct {
	mu        sync.Mutex
	cfg       BudgetConfig
	tokens    float64
	exhausted uint64
}

// NewBudget returns a budget holding one initial token (a cold client may
// retry once before it has earned credit), or Cap when that is less.
func NewBudget(cfg BudgetConfig) *Budget {
	if cfg.Ratio <= 0 {
		cfg.Ratio = 0.1
	}
	if cfg.Cap <= 0 {
		cfg.Cap = 10
	}
	return &Budget{cfg: cfg, tokens: min(1, cfg.Cap)}
}

// Deposit credits the budget for one first attempt.
func (b *Budget) Deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.cfg.Ratio
	if b.tokens > b.cfg.Cap {
		b.tokens = b.cfg.Cap
	}
	b.mu.Unlock()
}

// TryWithdraw spends one token for a retry, reporting false (and counting
// the refusal) when the budget is dry.
func (b *Budget) TryWithdraw() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.exhausted++
		return false
	}
	b.tokens--
	return true
}

// Exhausted returns how many retries the budget has refused.
func (b *Budget) Exhausted() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.exhausted
}

// Tokens returns the current banked credit (test and stats visibility).
func (b *Budget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// BudgetPool hands out one Budget per client key, creating them on demand.
type BudgetPool struct {
	mu  sync.Mutex
	cfg BudgetConfig
	m   map[string]*Budget
}

// NewBudgetPool returns an empty pool; every budget it creates uses cfg.
func NewBudgetPool(cfg BudgetConfig) *BudgetPool {
	return &BudgetPool{cfg: cfg, m: map[string]*Budget{}}
}

// Get returns the client's budget, creating it on first sight.
func (p *BudgetPool) Get(client string) *Budget {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.m[client]
	if !ok {
		b = NewBudget(p.cfg)
		p.m[client] = b
	}
	return b
}

// Exhausted sums the refused retries across every client in the pool.
func (p *BudgetPool) Exhausted() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, b := range p.m {
		n += b.Exhausted()
	}
	return n
}

// RetryConfig tunes Do.
type RetryConfig struct {
	// MaxAttempts caps total tries (the first attempt plus retries).
	// Values < 1 select 3.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (delay before retry k is
	// jitter * min(MaxDelay, BaseDelay<<k)). Values <= 0 select 10ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff delay. Values <= 0 select 1s.
	MaxDelay time.Duration
	// Jitter returns the full-jitter factor in [0,1) for attempt k. nil
	// draws from math/rand/v2; the service substitutes a request-seeded
	// function so backoff timing is deterministic per request.
	Jitter func(attempt int) float64
	// Sleep waits out one backoff delay, returning early with the context's
	// error if it fires first. nil selects a timer-based sleep; tests
	// substitute an instant one.
	Sleep func(ctx context.Context, d time.Duration) error
}

// SleepContext waits d honoring ctx — the default RetryConfig.Sleep. When
// the context fires first the timer is stopped *and drained*: Stop reports
// false if the timer already fired concurrently, in which case the pending
// tick is consumed so a cancelled backoff leaves no live timer and no
// buffered tick behind. Retry storms cancel in bulk (every in-flight
// request of a dying client at once), so the cleanup has to be airtight
// rather than "the GC will get it eventually".
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	select {
	case <-ctx.Done():
		if !t.Stop() {
			// The timer fired between ctx firing and Stop: drain the tick so
			// the timer is fully released. Nothing else reads t.C, so this
			// receive cannot block.
			<-t.C
		}
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs fn with full-jitter exponential backoff between attempts.
// retryable classifies which errors are worth retrying (nil retries
// everything); budget, when non-nil, is charged one deposit for the call
// and one withdrawal per retry — a dry budget ends the call with an error
// matching both ErrBudgetExhausted and the last attempt's error. A context
// that fires mid-backoff ends the call with the context's error (wrapping
// the last attempt's error when there is one).
func Do(ctx context.Context, cfg RetryConfig, budget *Budget, retryable func(error) bool, fn func(attempt int) error) error {
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 10 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Second
	}
	if cfg.Jitter == nil {
		cfg.Jitter = func(int) float64 { return rand.Float64() }
	}
	if cfg.Sleep == nil {
		cfg.Sleep = SleepContext
	}
	budget.Deposit()
	var err error
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return fmt.Errorf("%w (last attempt: %w)", cerr, err)
			}
			return cerr
		}
		err = fn(attempt)
		if err == nil || (retryable != nil && !retryable(err)) {
			return err
		}
		if attempt+1 >= cfg.MaxAttempts {
			return err
		}
		if !budget.TryWithdraw() {
			return fmt.Errorf("%w: %w", ErrBudgetExhausted, err)
		}
		if serr := cfg.Sleep(ctx, BackoffDelay(cfg, attempt)); serr != nil {
			return fmt.Errorf("%w (last attempt: %w)", serr, err)
		}
	}
}

// BackoffDelay computes the full-jitter delay before the retry after
// attempt: Jitter(attempt) * min(MaxDelay, BaseDelay<<attempt). It is
// exported so callers with their own retry loops (the fleet's failover
// walk) share Do's backoff shape instead of reinventing it. Zero-valued
// BaseDelay/MaxDelay are NOT defaulted here — pass a fully resolved config.
func BackoffDelay(cfg RetryConfig, attempt int) time.Duration {
	ceil := cfg.BaseDelay
	for i := 0; i < attempt && ceil < cfg.MaxDelay; i++ {
		ceil *= 2
	}
	if ceil > cfg.MaxDelay {
		ceil = cfg.MaxDelay
	}
	if cfg.Jitter == nil {
		return ceil
	}
	return time.Duration(cfg.Jitter(attempt) * float64(ceil))
}
