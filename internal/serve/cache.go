package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"hybridmem/internal/obs"
)

// lruCache is a bounded, mutex-guarded LRU map from string keys to values
// of type V, with get-or-compute (Do) that runs at most one computation per
// key at a time. Hits promote; inserts beyond the bound evict the least
// recently used entry. The server's result LRU maps canonical request keys
// to finished evaluations; the evaluator's profile cache maps workload
// tuples to profiles, and its snapshot tier maps replay classes to
// back-end snapshots.
//
// A result-LRU entry is either a result or a negative entry: the typed permanent
// failure the key's evaluation produced. An evaluation is a pure function
// of its key, so a key that panicked or failed internally fails the same
// way every time; remembering the failure answers repeats without spending
// replay capacity on them. Negative entries expire after a TTL — a bound
// on the damage if a failure was misclassified as permanent — and share
// the LRU bound with results: a client can only create one by spending an
// evaluation, exactly as it creates a result.
type lruCache[V any] struct {
	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recent; values are *lruEntry
	items   map[string]*list.Element // key -> element in order
	flights map[string]*flight[V]    // computations in progress, by key
	now     func() time.Time         // expiry clock; tests inject a fake
}

// lruEntry is one cached value or negative entry.
type lruEntry[V any] struct {
	key     string
	val     V
	failure *APIError // non-nil: a negative entry
	expires time.Time // negative entries only
}

// flight is one computation in progress; done closes when it ends.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// newLRUCache builds a cache bounded to max entries (max <= 0 means 1).
func newLRUCache[V any](max int) *lruCache[V] {
	if max <= 0 {
		max = 1
	}
	return &lruCache[V]{max: max, order: list.New(), items: map[string]*list.Element{},
		flights: map[string]*flight[V]{}, now: time.Now}
}

// Get returns the cached answer for key, promoting it: a value, or the
// typed failure of a live negative entry. An expired negative entry is
// dropped and reported absent, so the next request re-evaluates the key.
func (c *lruCache[V]) Get(key string) (val V, failure *APIError, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

// get is Get with c.mu held.
func (c *lruCache[V]) get(key string) (val V, failure *APIError, ok bool) {
	el, ok := c.items[key]
	if !ok {
		return val, nil, false
	}
	e := el.Value.(*lruEntry[V])
	if e.failure != nil && !c.now().Before(e.expires) {
		c.order.Remove(el)
		delete(c.items, key)
		return val, nil, false
	}
	c.order.MoveToFront(el)
	return e.val, e.failure, true
}

// Do returns key's answer, running fn for it at most once at a time. A
// resident value comes back as is, and a live negative entry as its
// failure. Otherwise the caller joins the flight in progress for key or,
// finding none, leads one: it runs fn and, on success, stores the value
// before releasing the flight, so no caller can miss both. A failure
// stores nothing. ran reports whether this call ran fn.
//
// A waiter whose own ctx ends returns ctx.Err(), while the flight runs on.
// A waiter whose flight failed on a context error — its leader's request
// timed out or was cancelled — while its own ctx is live does not inherit
// that error: it looks again, and leads if it must. Time spent waiting is
// recorded as ctx's singleflight_wait stage.
func (c *lruCache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (val V, ran bool, err error) {
	for {
		c.mu.Lock()
		if v, failure, ok := c.get(key); ok {
			c.mu.Unlock()
			if failure != nil {
				return val, false, failure
			}
			return v, false, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			start := time.Now()
			select {
			case <-f.done:
			case <-ctx.Done():
			}
			obs.AddStage(ctx, "singleflight_wait", time.Since(start))
			if err := ctx.Err(); err != nil {
				return val, false, err
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue
			}
			return f.val, false, f.err
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		f.val, f.err = fn()
		c.mu.Lock()
		if f.err == nil {
			c.put(&lruEntry[V]{key: key, val: f.val})
		}
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return f.val, true, f.err
	}
}

// Add inserts (or refreshes) key's value, evicting the LRU entry when
// full. A value replaces a negative entry under the same key.
func (c *lruCache[V]) Add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&lruEntry[V]{key: key, val: val})
}

// AddNegative remembers key's permanent failure for ttl.
func (c *lruCache[V]) AddNegative(key string, failure *APIError, ttl time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&lruEntry[V]{key: key, failure: failure, expires: c.now().Add(ttl)})
}

// put installs e as the most recent entry for its key; c.mu is held.
func (c *lruCache[V]) put(e *lruEntry[V]) {
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.items[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// Len returns the current entry count.
func (c *lruCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
