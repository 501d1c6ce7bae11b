package serve

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

func res(key string) *EvalResult { return &EvalResult{Key: key} }

func TestLRUCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache[*EvalResult](2)
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
	c := newLRUCache[*EvalResult](2)
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
	c := newLRUCache[*EvalResult](4)
	var runs, leaders, entered atomic.Int32
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		r, ran, err := c.Do(context.Background(), "k", func() (*EvalResult, error) {
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
	c := newLRUCache[*EvalResult](4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), "k", func() (*EvalResult, error) {
		close(started)
		<-gate
		return res("late"), nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func() (*EvalResult, error) {
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
	c := newLRUCache[*EvalResult](4)
	var runs int
	for i := 0; i < 3; i++ {
		r, ran, err := c.Do(context.Background(), "k", func() (*EvalResult, error) {
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
	c := newLRUCache[*EvalResult](4)
	boom := errors.New("boom")
	if _, ran, err := c.Do(context.Background(), "k", func() (*EvalResult, error) {
		return nil, boom
	}); !ran || !errors.Is(err, boom) {
		t.Fatalf("failing call: ran=%v err=%v", ran, err)
	}
	if c.Len() != 0 {
		t.Fatalf("a failure left %d entries", c.Len())
	}
	r, ran, err := c.Do(context.Background(), "k", func() (*EvalResult, error) {
		return res("second"), nil
	})
	if err != nil || !ran || r.Key != "second" {
		t.Fatalf("retry: res=%v ran=%v err=%v", r, ran, err)
	}
}

// TestLRUCacheDoReturnsNegativeEntry: a live negative entry comes back as
// its typed failure, without running fn.
func TestLRUCacheDoReturnsNegativeEntry(t *testing.T) {
	c := newLRUCache[*EvalResult](4)
	failure := &APIError{Code: CodePanic, Message: "remembered"}
	c.AddNegative("k", failure, time.Minute)
	_, ran, err := c.Do(context.Background(), "k", func() (*EvalResult, error) {
		t.Error("a negative entry must not run fn")
		return nil, nil
	})
	var apiErr *APIError
	if ran || !errors.As(err, &apiErr) || apiErr != failure {
		t.Fatalf("ran=%v err=%v, want the negative entry's *APIError", ran, err)
	}
}

// TestLRUCacheDoFollowerOfCancelledLeaderRuns: a follower whose leader's
// flight ended on the leader's context error, while its own context is
// live, runs fn itself instead of inheriting that error, and records its
// wait as the singleflight_wait stage.
func TestLRUCacheDoFollowerOfCancelledLeaderRuns(t *testing.T) {
	c := newLRUCache[*EvalResult](4)
	leaderCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func() (*EvalResult, error) {
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
	r, ran, err := c.Do(follower, "k", func() (*EvalResult, error) {
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
	c := newLRUCache[*EvalResult](4)
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("empty cache holds k")
	}
	c.Add("k", res("stored"))
	r, ran, err := c.Do(context.Background(), "k", func() (*EvalResult, error) {
		t.Error("a resident value must not run fn")
		return nil, nil
	})
	if err != nil || ran || r.Key != "stored" {
		t.Fatalf("res=%v ran=%v err=%v, want the stored value", r, ran, err)
	}
}
