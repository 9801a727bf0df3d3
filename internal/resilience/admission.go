package resilience

import (
	"sync"
	"time"
)

// LimiterConfig tunes a token-bucket admission controller.
type LimiterConfig struct {
	// Rate is the steady-state admission rate in requests per second.
	// Values <= 0 select the default of 100.
	Rate float64
	// Burst is the bucket capacity — how far above Rate a short spike may
	// go before shedding starts. Values <= 0 select Rate.
	Burst float64
	// Now substitutes the clock in tests; nil means time.Now.
	Now func() time.Time
}

// Limiter is a token-bucket admission controller: each admitted request
// spends one token, tokens refill at Rate per second up to Burst, and a
// request arriving at an empty bucket is shed. A nil *Limiter admits
// everything.
type Limiter struct {
	mu     sync.Mutex
	cfg    LimiterConfig
	tokens float64
	last   time.Time

	admitted uint64
	shed     uint64
}

// NewLimiter returns a limiter with a full bucket.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Limiter{cfg: cfg, tokens: cfg.Burst, last: cfg.Now()}
}

// Allow reports whether a request may proceed, spending one token if so.
func (l *Limiter) Allow() bool { return l.AllowN(1) }

// AllowN reports whether a request worth n tokens may proceed, spending all
// n if so. The withdrawal is all-or-nothing: a batch either pays for every
// item it carries or is shed whole — admitting half a batch would force the
// caller to invent per-item shed semantics the token bucket cannot express.
// n < 1 is treated as 1.
func (l *Limiter) AllowN(n int) bool {
	if l == nil {
		return true
	}
	if n < 1 {
		n = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.cfg.Now()
	if el := now.Sub(l.last).Seconds(); el > 0 {
		l.tokens += float64(el * l.cfg.Rate)
		if l.tokens > l.cfg.Burst {
			l.tokens = l.cfg.Burst
		}
		l.last = now
	}
	if l.tokens < float64(n) {
		l.shed += uint64(n)
		return false
	}
	l.tokens -= float64(n)
	l.admitted += uint64(n)
	return true
}

// RetryAfter reports how long until the bucket holds the n tokens a shed
// request was refused (n < 1 is treated as 1) — the honest Retry-After value
// for a 429: a client that waits this long is admitted (absent competition)
// instead of hot-looping against a bucket that can pay for one item but not
// its batch. Reports zero when the tokens are already available. A request
// larger than Burst can never be admitted; its hint is the uncapped refill
// time.
func (l *Limiter) RetryAfter(n int) time.Duration {
	if l == nil {
		return 0
	}
	if n < 1 {
		n = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tokens := l.tokens
	if el := l.cfg.Now().Sub(l.last).Seconds(); el > 0 {
		tokens += float64(el * l.cfg.Rate)
		if tokens > l.cfg.Burst {
			tokens = l.cfg.Burst
		}
	}
	if tokens >= float64(n) {
		return 0
	}
	return time.Duration((float64(n) - tokens) / l.cfg.Rate * float64(time.Second))
}

// LimiterStats is a point-in-time admission tally.
type LimiterStats struct {
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
}

// Stats returns the admission tallies so far.
func (l *Limiter) Stats() LimiterStats {
	if l == nil {
		return LimiterStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return LimiterStats{Admitted: l.admitted, Shed: l.shed}
}
