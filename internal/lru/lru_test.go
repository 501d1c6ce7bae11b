package lru

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/obs"
)

// result is a cached value with an identity the tests can check.
type result struct{ Key string }

func res(key string) *result { return &result{Key: key} }

// typedError is a typed failure, as serving stores its *APIError.
type typedError struct{ msg string }

func (e *typedError) Error() string { return e.msg }

// waitingCtx is a follower's live context that reports, by closing
// waiting, when the follower starts to wait on a flight (the first Done
// call on its path).
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

func TestLRUCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[*result](2)
	c.Add("a", res("a"))
	c.Add("b", res("b"))
	if _, _, ok := c.Get("a"); !ok { // promote a; b is now LRU
		t.Fatal("a missing")
	}
	c.Add("c", res("c")) // evicts b
	if _, _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, _, ok := c.Get(k); !ok {
			t.Fatalf("%s should be cached", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRUCacheRefreshExisting(t *testing.T) {
	c := New[*result](2)
	c.Add("a", res("a1"))
	c.Add("a", res("a2"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double add", c.Len())
	}
	got, _, _ := c.Get("a")
	if got.Key != "a2" {
		t.Fatalf("refresh kept old value %q", got.Key)
	}
}

func TestLRUCacheDoCollapsesConcurrentCalls(t *testing.T) {
	c := New[*result](4)
	var runs, leaders, entered atomic.Int32
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		r, ran, err := c.Do(context.Background(), "k", func() (*result, error) {
			runs.Add(1)
			<-gate
			return res("shared"), nil
		})
		if err != nil || r.Key != "shared" {
			t.Errorf("Do = %v, %v", r, err)
		}
		if ran {
			leaders.Add(1)
		}
	}
	// Start the leader and wait until it is inside fn, so every later
	// call finds the flight in progress.
	wg.Add(1)
	go call()
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			entered.Add(1)
			call()
		}()
	}
	// Let every follower reach Do before the leader is released; a call
	// arriving after the flight ends finds the stored value instead.
	for entered.Load() < n-1 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", runs.Load())
	}
	if leaders.Load() != 1 {
		t.Fatalf("%d leaders, want 1", leaders.Load())
	}
}

func TestLRUCacheDoFollowerHonorsContext(t *testing.T) {
	c := New[*result](4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (*result, error) {
		close(started)
		<-gate
		return res("late"), nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func() (*result, error) {
		t.Error("follower must not run fn")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want deadline exceeded", err)
	}
	close(gate) // leader finishes unhindered
}

// TestLRUCacheDoCachesSuccess: a success is stored, and later calls get it
// without running fn.
func TestLRUCacheDoCachesSuccess(t *testing.T) {
	c := New[*result](4)
	var runs int
	for i := 0; i < 3; i++ {
		r, ran, err := c.Do(context.Background(), "k", func() (*result, error) {
			runs++
			return res(fmt.Sprintf("run%d", runs)), nil
		})
		if err != nil || r.Key != "run1" || ran != (i == 0) {
			t.Fatalf("call %d: res=%v ran=%v err=%v", i, r, ran, err)
		}
	}
	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
}

// TestLRUCacheDoDoesNotCacheFailure: a failure stores nothing, so the next
// call runs fn again.
func TestLRUCacheDoDoesNotCacheFailure(t *testing.T) {
	c := New[*result](4)
	boom := errors.New("boom")
	if _, ran, err := c.Do(context.Background(), "k", func() (*result, error) {
		return nil, boom
	}); !ran || !errors.Is(err, boom) {
		t.Fatalf("failing call: ran=%v err=%v", ran, err)
	}
	if c.Len() != 0 {
		t.Fatalf("a failure left %d entries", c.Len())
	}
	r, ran, err := c.Do(context.Background(), "k", func() (*result, error) {
		return res("second"), nil
	})
	if err != nil || !ran || r.Key != "second" {
		t.Fatalf("retry: res=%v ran=%v err=%v", r, ran, err)
	}
}

// TestLRUCacheDoReturnsNegativeEntry: a live negative entry comes back as
// its typed failure, without running fn.
func TestLRUCacheDoReturnsNegativeEntry(t *testing.T) {
	c := New[*result](4)
	failure := &typedError{"remembered"}
	c.AddNegative("k", failure, time.Minute)
	_, ran, err := c.Do(context.Background(), "k", func() (*result, error) {
		t.Error("a negative entry must not run fn")
		return nil, nil
	})
	var typed *typedError
	if ran || !errors.As(err, &typed) || typed != failure {
		t.Fatalf("ran=%v err=%v, want the negative entry's *typedError", ran, err)
	}
}

// TestLRUCacheDoFollowerOfCancelledLeaderRuns: a follower whose leader's
// flight ended on the leader's context error, while its own context is
// live, runs fn itself instead of inheriting that error, and records its
// wait as the singleflight_wait stage.
func TestLRUCacheDoFollowerOfCancelledLeaderRuns(t *testing.T) {
	c := New[*result](4)
	leaderCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func() (*result, error) {
			close(started)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-started
	follower := &waitingCtx{Context: obs.ContextWithStages(context.Background(), obs.NewStages()), waiting: make(chan struct{})}
	go func() {
		<-follower.waiting // the follower waits on the leader's flight
		cancel()
	}()
	r, ran, err := c.Do(follower, "k", func() (*result, error) {
		return res("own"), nil
	})
	if err != nil || !ran || r.Key != "own" {
		t.Fatalf("follower: res=%v ran=%v err=%v, want its own run", r, ran, err)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	stages, _ := obs.StagesFrom(follower).Fields()["stages"].(map[string]float64)
	if _, ok := stages["singleflight_wait"]; !ok {
		t.Fatalf("follower recorded no singleflight_wait: %v", stages)
	}
}

// TestLRUCacheDoReturnsValueStoredAfterGet: a value stored between a
// caller's Get and its Do — another request's flight ending in between —
// is returned without running fn.
func TestLRUCacheDoReturnsValueStoredAfterGet(t *testing.T) {
	c := New[*result](4)
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("empty cache holds k")
	}
	c.Add("k", res("stored"))
	r, ran, err := c.Do(context.Background(), "k", func() (*result, error) {
		t.Error("a resident value must not run fn")
		return nil, nil
	})
	if err != nil || ran || r.Key != "stored" {
		t.Fatalf("res=%v ran=%v err=%v, want the stored value", r, ran, err)
	}
}
