package resilience

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symbios/internal/leakcheck"
)

var errTransient = errors.New("transient")

// TestSleepContextCancelled checks a cancelled context ends the sleep early
// with the context's error and leaves no timer state behind (the drain path:
// Stop-then-consume when the tick races the cancellation). The leakcheck
// cleanup is what proves the "no timer goroutines" half.
func TestSleepContextCancelled(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Many concurrent sleepers cancelled in bulk, the retry-storm shape:
	// every one must return promptly with ctx.Err.
	errs := make([]error, 64)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = SleepContext(ctx, time.Hour)
		}(i)
	}
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sleepers did not return within 5s")
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sleeper %d returned %v, want context.Canceled", i, err)
		}
	}
}

// TestSleepContextZeroAndExpired checks the degenerate inputs: a
// non-positive delay returns immediately with the context's current error,
// and an already-expired context never starts a timer.
func TestSleepContextZeroAndExpired(t *testing.T) {
	leakcheck.Check(t)
	if err := SleepContext(context.Background(), 0); err != nil {
		t.Fatalf("SleepContext(0) = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SleepContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("SleepContext(expired, 0) = %v, want context.Canceled", err)
	}
	if err := SleepContext(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("SleepContext(expired, 1h) = %v, want context.Canceled", err)
	}
}

// TestDoCancelMidBackoffNoLeak drives real timer-based backoff (the default
// Sleep) and cancels mid-wait: Do must return the context error wrapping the
// last attempt's failure, and no timer goroutine may outlive the call.
func TestDoCancelMidBackoffNoLeak(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		result <- Do(ctx, RetryConfig{
			MaxAttempts: 3,
			BaseDelay:   time.Hour, // the backoff must come from ctx, not elapse
			Jitter:      func(int) float64 { return 0.999 },
		}, nil, nil, func(attempt int) error {
			if attempt == 0 {
				close(started)
			}
			return errTransient
		})
	}()
	<-started
	cancel()
	select {
	case err := <-result:
		if !errors.Is(err, context.Canceled) || !errors.Is(err, errTransient) {
			t.Fatalf("Do = %v, want context.Canceled wrapping errTransient", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return within 5s of cancellation")
	}
}

// instantSleep records requested delays without waiting.
type instantSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (s *instantSleep) sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.delays = append(s.delays, d)
	s.mu.Unlock()
	return ctx.Err()
}

// TestDoRetriesUntilSuccess checks a transient failure is retried and the
// eventual success is returned.
func TestDoRetriesUntilSuccess(t *testing.T) {
	sl := &instantSleep{}
	calls := 0
	err := Do(context.Background(), RetryConfig{MaxAttempts: 5, Sleep: sl.sleep}, nil, nil,
		func(attempt int) error {
			calls++
			if attempt < 2 {
				return errTransient
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(sl.delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(sl.delays))
	}
}

// TestDoStopsOnNonRetryable checks the classifier short-circuits retries.
func TestDoStopsOnNonRetryable(t *testing.T) {
	fatal := errors.New("fatal")
	calls := 0
	err := Do(context.Background(), RetryConfig{MaxAttempts: 5, Sleep: (&instantSleep{}).sleep}, nil,
		func(err error) bool { return errors.Is(err, errTransient) },
		func(int) error { calls++; return fatal })
	if !errors.Is(err, fatal) {
		t.Fatalf("err = %v, want fatal", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

// TestDoExhaustsAttempts checks the last error surfaces when attempts run out.
func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Do(context.Background(), RetryConfig{MaxAttempts: 3, Sleep: (&instantSleep{}).sleep}, nil, nil,
		func(int) error { calls++; return errTransient })
	if !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want errTransient", err)
	}
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatal("attempt exhaustion mislabeled as budget exhaustion")
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

// TestDoBudgetExhaustion checks a dry budget suppresses retries and the
// error matches both ErrBudgetExhausted and the underlying failure.
func TestDoBudgetExhaustion(t *testing.T) {
	// Ratio so small the single starting token is all the credit there is.
	budget := NewBudget(BudgetConfig{Ratio: 1e-9, Cap: 1})
	cfg := RetryConfig{MaxAttempts: 10, Sleep: (&instantSleep{}).sleep}
	calls := 0
	fail := func(int) error { calls++; return errTransient }

	// First call: 1 banked token allows exactly one retry, then dry.
	err := Do(context.Background(), cfg, budget, nil, fail)
	if !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want ErrBudgetExhausted wrapping errTransient", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (one attempt + one budgeted retry)", calls)
	}

	// Second call: no credit left at all — fails after the first attempt.
	calls = 0
	err = Do(context.Background(), cfg, budget, nil, fail)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if budget.Exhausted() != 2 {
		t.Fatalf("Exhausted() = %d, want 2", budget.Exhausted())
	}
}

// TestBudgetDepositsEarnRetries checks successful traffic rebuilds credit at
// the configured ratio, bounded by the cap.
func TestBudgetDepositsEarnRetries(t *testing.T) {
	b := NewBudget(BudgetConfig{Ratio: 0.5, Cap: 2})
	if !b.TryWithdraw() { // spend the starting token
		t.Fatal("starting token missing")
	}
	if b.TryWithdraw() {
		t.Fatal("withdraw from empty budget succeeded")
	}
	b.Deposit()
	b.Deposit() // 1.0 banked
	if !b.TryWithdraw() {
		t.Fatal("two deposits at ratio 0.5 did not fund one retry")
	}
	for i := 0; i < 10; i++ {
		b.Deposit()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
}

// TestBudgetPoolPerClient checks budgets are isolated per client key.
func TestBudgetPoolPerClient(t *testing.T) {
	p := NewBudgetPool(BudgetConfig{Ratio: 0.1, Cap: 5})
	a, b := p.Get("a"), p.Get("b")
	if a == b {
		t.Fatal("distinct clients share a budget")
	}
	if p.Get("a") != a {
		t.Fatal("repeat Get returned a different budget")
	}
	a.TryWithdraw()
	if !b.TryWithdraw() {
		t.Fatal("client a's withdrawal drained client b")
	}
}

// TestBudgetSpendBounded checks the budget's three invariants over random
// interleavings of Deposit and TryWithdraw, sequential and concurrent:
// successful withdrawals never exceed the starting token plus Ratio per
// deposit, the banked credit stays in [0, Cap] from creation on (a fresh
// budget's starting token is clamped to a Cap below one), and Exhausted
// counts every refusal.
func TestBudgetSpendBounded(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 3))
	// spendOK allows the rounding of repeated float additions.
	spendOK := func(b *Budget, spent, deposits uint64) bool {
		return float64(spent) <= 1+b.cfg.Ratio*float64(deposits)+1e-9*float64(deposits+1)
	}
	bankOK := func(b *Budget) bool {
		tok := b.Tokens()
		return tok >= 0 && tok <= b.cfg.Cap
	}
	draw := func() BudgetConfig {
		return BudgetConfig{Ratio: []float64{0, 0.01, 0.1, 1.0 / 3, 0.5, 1, 2.5}[r.IntN(7)],
			Cap: []float64{0, 0.5, 1, 2, 10}[r.IntN(5)]}
	}

	for trial := 0; trial < 300; trial++ {
		b := NewBudget(draw())
		if !bankOK(b) {
			t.Fatalf("%+v: a fresh budget banks %v tokens", b.cfg, b.Tokens())
		}
		var deposits, spent, refused uint64
		for op := 0; op < 400; op++ {
			switch {
			case r.IntN(3) == 0: // withdrawals outnumber deposits, so the budget runs dry
				b.Deposit()
				deposits++
			case b.TryWithdraw():
				spent++
			default:
				refused++
			}
			if !spendOK(b, spent, deposits) {
				t.Fatalf("%+v: %d withdrawals on %d deposits", b.cfg, spent, deposits)
			}
			if !bankOK(b) {
				t.Fatalf("%+v: %v tokens banked", b.cfg, b.Tokens())
			}
			if b.Exhausted() != refused {
				t.Fatalf("%+v: Exhausted() = %d after %d refusals", b.cfg, b.Exhausted(), refused)
			}
		}
	}

	// Concurrent clients of one budget, checked as they go for the bank's
	// range and at the end for the spend bound and the refusal count.
	for trial := 0; trial < 20; trial++ {
		b := NewBudget(draw())
		if !bankOK(b) {
			t.Fatalf("%+v: a fresh budget banks %v tokens", b.cfg, b.Tokens())
		}
		var deposits, spent, refused atomic.Uint64
		var bad atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				gr := rand.New(rand.NewPCG(seed, 7))
				for op := 0; op < 500; op++ {
					switch {
					case gr.IntN(3) == 0:
						b.Deposit()
						deposits.Add(1)
					case b.TryWithdraw():
						spent.Add(1)
					default:
						refused.Add(1)
					}
					if !bankOK(b) {
						bad.Store(true)
					}
				}
			}(uint64(trial*4 + g))
		}
		wg.Wait()
		if bad.Load() {
			t.Fatalf("%+v: banked credit left [0, Cap] under concurrent use", b.cfg)
		}
		if !spendOK(b, spent.Load(), deposits.Load()) {
			t.Fatalf("%+v: %d withdrawals on %d deposits", b.cfg, spent.Load(), deposits.Load())
		}
		if b.Exhausted() != refused.Load() {
			t.Fatalf("%+v: Exhausted() = %d after %d refusals", b.cfg, b.Exhausted(), refused.Load())
		}
	}
}

// TestDoBackoffDeterministicJitter checks delays follow the injected jitter
// exactly: delay_k = jitter(k) * min(MaxDelay, Base<<k).
func TestDoBackoffDeterministicJitter(t *testing.T) {
	sl := &instantSleep{}
	cfg := RetryConfig{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    25 * time.Millisecond,
		Jitter:      func(int) float64 { return 0.5 },
		Sleep:       sl.sleep,
	}
	_ = Do(context.Background(), cfg, nil, nil, func(int) error { return errTransient })
	want := []time.Duration{
		5 * time.Millisecond,     // 0.5 * 10ms
		10 * time.Millisecond,    // 0.5 * 20ms
		12500 * time.Microsecond, // 0.5 * 25ms (capped)
	}
	if len(sl.delays) != len(want) {
		t.Fatalf("delays %v, want %v", sl.delays, want)
	}
	for i := range want {
		if sl.delays[i] != want[i] {
			t.Fatalf("delay[%d] = %v, want %v", i, sl.delays[i], want[i])
		}
	}
}

// TestDoHonorsContext checks a cancelled context ends the loop with the
// context error wrapping the last attempt's failure.
func TestDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, RetryConfig{MaxAttempts: 10, Sleep: SleepContext, BaseDelay: time.Nanosecond}, nil, nil,
		func(int) error {
			calls++
			cancel()
			return errTransient
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want to wrap last attempt error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

// TestNilBudgetUnlimited checks a nil *Budget never suppresses retries.
func TestNilBudgetUnlimited(t *testing.T) {
	calls := 0
	err := Do(context.Background(), RetryConfig{MaxAttempts: 6, Sleep: (&instantSleep{}).sleep}, nil, nil,
		func(int) error { calls++; return errTransient })
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatal("nil budget reported exhaustion")
	}
	if calls != 6 {
		t.Fatalf("calls = %d, want 6", calls)
	}
	var b *Budget
	if !b.TryWithdraw() || b.Exhausted() != 0 || b.Tokens() != 0 {
		t.Fatal("nil budget methods not no-ops")
	}
	b.Deposit()
}

// TestBackoffDelayShape pins the exported full-jitter curve: the ceiling
// doubles per attempt up to MaxDelay, the jitter factor scales it, and a
// nil Jitter returns the raw ceiling.
func TestBackoffDelayShape(t *testing.T) {
	cfg := RetryConfig{BaseDelay: 10 * time.Millisecond, MaxDelay: 45 * time.Millisecond}
	for attempt, want := range []time.Duration{
		10 * time.Millisecond, // 10 << 0
		20 * time.Millisecond, // 10 << 1
		40 * time.Millisecond, // 10 << 2
		45 * time.Millisecond, // capped
		45 * time.Millisecond, // stays capped
	} {
		if got := BackoffDelay(cfg, attempt); got != want {
			t.Fatalf("attempt %d: delay %s, want %s", attempt, got, want)
		}
	}
	half := cfg
	half.Jitter = func(int) float64 { return 0.5 }
	if got := BackoffDelay(half, 1); got != 10*time.Millisecond {
		t.Fatalf("jitter 0.5 attempt 1: %s, want 10ms", got)
	}
	zero := cfg
	zero.Jitter = func(int) float64 { return 0 }
	if got := BackoffDelay(zero, 3); got != 0 {
		t.Fatalf("jitter 0: %s, want 0 (full jitter may sleep nothing)", got)
	}
}
