package resilience

import (
	"testing"
	"time"
)

// TestLimiterBurstThenShed checks the bucket admits up to Burst immediately
// and sheds the overflow.
func TestLimiterBurstThenShed(t *testing.T) {
	clock := newFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 10, Burst: 3, Now: clock.Now})
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("request %d shed inside burst", i)
		}
	}
	if l.Allow() {
		t.Fatal("request admitted past an empty bucket")
	}
	s := l.Stats()
	if s.Admitted != 3 || s.Shed != 1 {
		t.Fatalf("stats %+v, want 3 admitted / 1 shed", s)
	}
}

// TestLimiterAllowN checks the batch withdrawal is all-or-nothing and
// tallies by item count, so a shed batch and a shed singleton stream report
// the same admission load.
func TestLimiterAllowN(t *testing.T) {
	clock := newFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 10, Burst: 4, Now: clock.Now})
	if l.AllowN(8) {
		t.Fatal("8-item batch admitted against a 4-token bucket")
	}
	if s := l.Stats(); s.Shed != 8 {
		t.Fatalf("shed %d, want 8 (per item)", s.Shed)
	}
	if !l.AllowN(4) {
		t.Fatal("4-item batch shed with 4 tokens available (all-or-nothing must not have spent any)")
	}
	if s := l.Stats(); s.Admitted != 4 {
		t.Fatalf("admitted %d, want 4 (per item)", s.Admitted)
	}
	if l.Allow() {
		t.Fatal("singleton admitted after the batch drained the bucket")
	}
	if !(*Limiter)(nil).AllowN(100) {
		t.Fatal("nil limiter must admit everything")
	}
}

// TestLimiterRefill checks tokens return at Rate per second, capped at Burst.
func TestLimiterRefill(t *testing.T) {
	clock := newFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 10, Burst: 3, Now: clock.Now})
	for i := 0; i < 3; i++ {
		l.Allow()
	}
	// 100ms at 10 rps refills exactly one token.
	clock.Advance(100 * time.Millisecond)
	if !l.Allow() {
		t.Fatal("refilled token not admitted")
	}
	if l.Allow() {
		t.Fatal("second request admitted on a single refilled token")
	}
	// A long idle period refills only to Burst.
	clock.Advance(time.Hour)
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("request %d shed after refill to burst", i)
		}
	}
	if l.Allow() {
		t.Fatal("bucket exceeded Burst after idle refill")
	}
}

// TestLimiterNilAdmitsAll checks the nil receiver is a no-op admit-all.
func TestLimiterNilAdmitsAll(t *testing.T) {
	var l *Limiter
	for i := 0; i < 100; i++ {
		if !l.Allow() {
			t.Fatal("nil limiter shed a request")
		}
	}
	if s := l.Stats(); s.Admitted != 0 || s.Shed != 0 {
		t.Fatalf("nil limiter stats %+v", s)
	}
}

// TestLimiterDefaults checks zero config selects sane defaults.
func TestLimiterDefaults(t *testing.T) {
	l := NewLimiter(LimiterConfig{})
	if !l.Allow() {
		t.Fatal("default limiter shed the first request")
	}
}

// TestLimiterRetryAfter checks the 429 backoff hint is derived from the
// refill rate: an empty bucket at 10 tokens/s needs 100ms for one token,
// and elapsing time shrinks the remaining wait accordingly.
func TestLimiterRetryAfter(t *testing.T) {
	clock := newFakeClock()
	l := NewLimiter(LimiterConfig{Rate: 10, Burst: 1, Now: clock.Now})
	if d := l.RetryAfter(1); d != 0 {
		t.Fatalf("full bucket RetryAfter = %v, want 0", d)
	}
	if !l.Allow() {
		t.Fatal("first request shed")
	}
	if d := l.RetryAfter(1); d != 100*time.Millisecond {
		t.Fatalf("empty bucket RetryAfter = %v, want 100ms", d)
	}
	clock.Advance(60 * time.Millisecond)
	if d := l.RetryAfter(1); d != 40*time.Millisecond {
		t.Fatalf("after 60ms RetryAfter = %v, want 40ms", d)
	}
	clock.Advance(40 * time.Millisecond)
	if d := l.RetryAfter(1); d != 0 {
		t.Fatalf("refilled bucket RetryAfter = %v, want 0", d)
	}
	if l.RetryAfter(1) != 0 || !l.Allow() {
		t.Fatal("RetryAfter must not spend tokens")
	}

	// The hint is for the refused amount: a shed batch of n is told when n
	// tokens will be there, not when the first one is.
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{1, 100 * time.Millisecond},
		{8, 800 * time.Millisecond},
	} {
		clock := newFakeClock()
		l := NewLimiter(LimiterConfig{Rate: 10, Burst: 8, Now: clock.Now})
		if !l.AllowN(8) {
			t.Fatal("full bucket shed a batch of its own size")
		}
		if d := l.RetryAfter(tc.n); d != tc.want {
			t.Errorf("empty bucket RetryAfter(%d) = %v, want %v", tc.n, d, tc.want)
		}
		clock.Advance(tc.want)
		if d := l.RetryAfter(tc.n); d != 0 || !l.AllowN(tc.n) {
			t.Errorf("after the hinted wait RetryAfter(%d) = %v and the request is still shed", tc.n, d)
		}
	}
}

// TestLimiterRetryAfterNil checks the nil receiver reports no wait.
func TestLimiterRetryAfterNil(t *testing.T) {
	var l *Limiter
	if d := l.RetryAfter(1); d != 0 {
		t.Fatalf("nil RetryAfter = %v, want 0", d)
	}
}
