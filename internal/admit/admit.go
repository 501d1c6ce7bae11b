// Package admit is the admission-control layer for the serving tier:
// per-client token-bucket rate limiting.
//
// The limiter sits in front of the expensive parts of the request path
// (the replay semaphore, the evaluator) and decides cheaply whether work
// may proceed. It shares three design constraints with the rest of the
// repo:
//
//   - Deterministic under test: every time source is injectable, so a
//     chaos schedule drives the limiter with a fake clock and replays the
//     exact same admit/deny sequence on every run.
//   - Zero allocation on the hot path: admitting a known client performs
//     no heap allocation (pinned by a testing.AllocsPerRun test and the
//     BenchmarkTokenBucketAllow entry in the bench-json artifact).
//   - Bounded memory: the limiter tracks at most MaxClients buckets and
//     lazily garbage-collects idle ones, so an open endpoint cannot be
//     grown without bound by spoofed client keys.
package admit

import (
	"sync"
	"time"
)

// DefaultMaxClients bounds the number of per-client buckets a Limiter
// tracks when LimiterConfig.MaxClients is zero.
const DefaultMaxClients = 4096

// LimiterConfig configures a per-client token-bucket Limiter.
type LimiterConfig struct {
	// Rate is the steady-state admission rate per client in requests
	// per second. Rate <= 0 disables the limiter (NewLimiter returns
	// nil, and a nil *Limiter admits everything).
	Rate float64

	// Burst is the bucket capacity: how many requests a client may
	// issue back-to-back after an idle period. Burst <= 0 defaults to
	// max(1, Rate).
	Burst float64

	// MaxClients bounds the number of tracked buckets; 0 means
	// DefaultMaxClients. When the table is full, idle buckets (those
	// that have fully refilled) are collected first; if none are idle
	// the stalest bucket is evicted, so the bound is strict.
	MaxClients int

	// Now is the clock; nil means time.Now. Tests inject a fake clock
	// to make throttling decisions deterministic.
	Now func() time.Time
}

// Limiter is a per-client token-bucket rate limiter. Each client key owns
// an independent bucket, so one saturating client cannot consume another
// client's admission capacity. A nil *Limiter admits every request.
type Limiter struct {
	rate       float64
	burst      float64
	maxClients int
	now        func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
	evicted uint64
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a Limiter from cfg, or returns nil (admit everything)
// when cfg.Rate <= 0.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.Rate <= 0 {
		return nil
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = cfg.Rate
		if burst < 1 {
			burst = 1
		}
	}
	maxClients := cfg.MaxClients
	if maxClients <= 0 {
		maxClients = DefaultMaxClients
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Limiter{
		rate:       cfg.Rate,
		burst:      burst,
		maxClients: maxClients,
		now:        now,
		buckets:    make(map[string]*bucket),
	}
}

// Allow spends one token from client's bucket. It returns ok=true when the
// request is admitted. On denial, retryAfter is the time until the bucket
// refills enough for one request — the actual refill time, not a guess —
// which the serving layer surfaces as Retry-After.
//
// Admitting a known client allocates nothing; only the first request from
// a new client allocates its bucket.
func (l *Limiter) Allow(client string) (retryAfter time.Duration, ok bool) {
	if l == nil {
		return 0, true
	}
	now := l.now()
	l.mu.Lock()
	b := l.buckets[client]
	if b == nil {
		if len(l.buckets) >= l.maxClients {
			l.gcLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += elapsed.Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		l.mu.Unlock()
		return 0, true
	}
	deficit := 1 - b.tokens
	l.mu.Unlock()
	return time.Duration(deficit / l.rate * float64(time.Second)), false
}

// gcLocked frees space for a new bucket: first it drops every idle bucket
// (idle = enough time has passed that the bucket has refilled to capacity,
// so dropping it loses no throttling state), then, if the table is still
// full, it evicts the bucket with the oldest activity so the MaxClients
// bound holds strictly.
func (l *Limiter) gcLocked(now time.Time) {
	idle := time.Duration(l.burst / l.rate * float64(time.Second))
	for key, b := range l.buckets {
		if now.Sub(b.last) >= idle {
			delete(l.buckets, key)
			l.evicted++
		}
	}
	for len(l.buckets) >= l.maxClients {
		var stalest string
		var stalestAt time.Time
		first := true
		for key, b := range l.buckets {
			if first || b.last.Before(stalestAt) {
				stalest, stalestAt, first = key, b.last, false
			}
		}
		delete(l.buckets, stalest)
		l.evicted++
	}
}

// Len reports how many client buckets are currently tracked.
func (l *Limiter) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// Evicted reports how many buckets have been garbage-collected or evicted
// to keep the table within MaxClients.
func (l *Limiter) Evicted() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}
