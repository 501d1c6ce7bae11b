package admit

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic clock for limiter tests.
type fakeClock struct {
	nanos atomic.Int64
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

func TestLimiterDisabled(t *testing.T) {
	if l := NewLimiter(LimiterConfig{Rate: 0}); l != nil {
		t.Fatal("Rate=0 must disable the limiter")
	}
	var l *Limiter
	if _, ok := l.Allow("anyone"); !ok {
		t.Fatal("nil limiter must admit everything")
	}
	if l.Len() != 0 || l.Evicted() != 0 {
		t.Fatal("nil limiter stats must be zero")
	}
}

func TestLimiterBurstThenRefill(t *testing.T) {
	var clk fakeClock
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 3, Now: clk.Now})

	for i := 0; i < 3; i++ {
		if ra, ok := l.Allow("c"); !ok {
			t.Fatalf("request %d within burst denied (retryAfter=%v)", i, ra)
		}
	}
	// Bucket empty, clock frozen: deficit is exactly one token at 1/s.
	ra, ok := l.Allow("c")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if ra != time.Second {
		t.Fatalf("retryAfter = %v, want exactly 1s (deficit/rate)", ra)
	}

	// Half a second refills half a token: still denied, deficit halved.
	clk.Advance(500 * time.Millisecond)
	ra, ok = l.Allow("c")
	if ok {
		t.Fatal("admitted before a full token refilled")
	}
	if ra != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms", ra)
	}

	// The advertised retry-after is honest: waiting exactly that long
	// yields an admit.
	clk.Advance(ra)
	if _, ok := l.Allow("c"); !ok {
		t.Fatal("denied after waiting the advertised retryAfter")
	}
}

func TestLimiterClientsIndependent(t *testing.T) {
	var clk fakeClock
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 2, Now: clk.Now})

	// Saturate client a.
	l.Allow("a")
	l.Allow("a")
	if _, ok := l.Allow("a"); ok {
		t.Fatal("saturating client not throttled")
	}
	// Client b is untouched by a's saturation.
	for i := 0; i < 2; i++ {
		if _, ok := l.Allow("b"); !ok {
			t.Fatalf("client b request %d starved by client a", i)
		}
	}
}

func TestLimiterBucketGC(t *testing.T) {
	var clk fakeClock
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 1, MaxClients: 8, Now: clk.Now})

	for i := 0; i < 8; i++ {
		l.Allow(fmt.Sprintf("old-%d", i))
	}
	if l.Len() != 8 {
		t.Fatalf("tracking %d buckets, want 8", l.Len())
	}
	// After a full refill interval every old bucket is idle; a new client
	// triggers the sweep and the table never exceeds MaxClients.
	clk.Advance(2 * time.Second)
	for i := 0; i < 8; i++ {
		l.Allow(fmt.Sprintf("new-%d", i))
	}
	if l.Len() > 8 {
		t.Fatalf("tracking %d buckets, MaxClients=8 bound violated", l.Len())
	}
	if l.Evicted() == 0 {
		t.Fatal("idle buckets were never collected")
	}
}

func TestLimiterBoundHoldsWithoutIdleBuckets(t *testing.T) {
	var clk fakeClock
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 4, MaxClients: 4, Now: clk.Now})

	// All buckets hot (no refill time has passed), table full: inserting
	// a new client must evict the stalest, not grow the table.
	for i := 0; i < 4; i++ {
		l.Allow(fmt.Sprintf("hot-%d", i))
		clk.Advance(time.Millisecond)
	}
	l.Allow("newcomer")
	if l.Len() > 4 {
		t.Fatalf("tracking %d buckets, want <= 4 even with no idle buckets", l.Len())
	}
}

func TestLimiterAllowZeroAlloc(t *testing.T) {
	l := NewLimiter(LimiterConfig{Rate: 1e12, Burst: 1e12})
	l.Allow("steady") // first call allocates the bucket
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := l.Allow("steady"); !ok {
			t.Fatal("denied at effectively unlimited rate")
		}
	})
	if allocs != 0 {
		t.Fatalf("Allow allocates %.1f objects/op on the admit path, want 0", allocs)
	}
}

func BenchmarkTokenBucketAllow(b *testing.B) {
	l := NewLimiter(LimiterConfig{Rate: 1e12, Burst: 1e12})
	l.Allow("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Allow("bench")
	}
}
