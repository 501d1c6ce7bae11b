package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

func TestFlightGroupCollapsesConcurrentCalls(t *testing.T) {
	g := newFlightGroup[*EvalResult]()
	var runs, leaders, entered atomic.Int32
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		r, led, err := g.Do(context.Background(), "k", func() (*EvalResult, error) {
			runs.Add(1)
			<-gate
			return res("shared"), nil
		})
		if err != nil || r.Key != "shared" {
			t.Errorf("Do = %v, %v", r, err)
		}
		if led {
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
	// Let every follower reach Do before the leader is released: a call
	// that arrives after the flight ends rightly leads a flight of its own.
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

func TestFlightGroupFollowerHonorsContext(t *testing.T) {
	g := newFlightGroup[*EvalResult]()
	gate := make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), "k", func() (*EvalResult, error) {
		close(started)
		<-gate
		return res("late"), nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := g.Do(ctx, "k", func() (*EvalResult, error) {
		t.Error("follower must not run fn")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want deadline exceeded", err)
	}
	close(gate) // leader finishes unhindered
}

func TestFlightGroupSequentialCallsRunIndependently(t *testing.T) {
	g := newFlightGroup[*EvalResult]()
	for i := 0; i < 3; i++ {
		want := fmt.Sprintf("run%d", i)
		r, led, err := g.Do(context.Background(), "k", func() (*EvalResult, error) {
			return res(want), nil
		})
		if err != nil || !led || r.Key != want {
			t.Fatalf("call %d: res=%v led=%v err=%v", i, r, led, err)
		}
	}
}
