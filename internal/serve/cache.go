package serve

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// lruCache is a bounded, mutex-guarded LRU map from string keys to values
// of type V. Hits promote; inserts beyond the bound evict the least
// recently used entry. The server's result LRU maps canonical request keys
// to finished evaluations; the evaluator's snapshot tier maps replay
// classes to back-end snapshots.
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
	mu    sync.Mutex
	max   int
	order *list.List               // front = most recent; values are *lruEntry
	items map[string]*list.Element // key -> element in order
	now   func() time.Time         // expiry clock; tests inject a fake
}

// lruEntry is one cached value or negative entry.
type lruEntry[V any] struct {
	key     string
	val     V
	failure *APIError // non-nil: a negative entry
	expires time.Time // negative entries only
}

// newLRUCache builds a cache bounded to max entries (max <= 0 means 1).
func newLRUCache[V any](max int) *lruCache[V] {
	if max <= 0 {
		max = 1
	}
	return &lruCache[V]{max: max, order: list.New(), items: map[string]*list.Element{}, now: time.Now}
}

// Get returns the cached answer for key, promoting it: a value, or the
// typed failure of a live negative entry. An expired negative entry is
// dropped and reported absent, so the next request re-evaluates the key.
func (c *lruCache[V]) Get(key string) (val V, failure *APIError, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
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

// Add inserts (or refreshes) key's value, evicting the LRU entry when
// full. A value replaces a negative entry under the same key.
func (c *lruCache[V]) Add(key string, val V) {
	c.put(&lruEntry[V]{key: key, val: val})
}

// AddNegative remembers key's permanent failure for ttl.
func (c *lruCache[V]) AddNegative(key string, failure *APIError, ttl time.Duration) {
	c.put(&lruEntry[V]{key: key, failure: failure, expires: c.now().Add(ttl)})
}

// put installs e as the most recent entry for its key.
func (c *lruCache[V]) put(e *lruEntry[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
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

// flightGroup collapses concurrent duplicate work: the first caller of a
// key becomes the leader and runs fn; followers block until the leader
// finishes and share its result. Unlike golang.org/x/sync/singleflight
// (not vendored here), followers stop waiting when their own context is
// done — the leader's work continues and still populates the cache.
type flightGroup[T any] struct {
	mu      sync.Mutex
	flights map[string]*flight[T]
}

// flight is one in-progress computation.
type flight[T any] struct {
	done chan struct{}
	res  T
	err  error
}

// newFlightGroup builds an empty group.
func newFlightGroup[T any]() *flightGroup[T] {
	return &flightGroup[T]{flights: map[string]*flight[T]{}}
}

// Do runs fn for key unless an identical flight is already in progress, in
// which case it waits for that flight instead. The boolean reports whether
// this caller led the flight (ran fn itself). When ctx ends before the
// shared flight does, Do returns ctx.Err() while the leader keeps running.
func (g *flightGroup[T]) Do(ctx context.Context, key string, fn func() (T, error)) (res T, led bool, err error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.res, false, f.err
		case <-ctx.Done():
			var zero T
			return zero, false, ctx.Err()
		}
	}
	f := &flight[T]{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.res, f.err = fn()
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.res, true, f.err
}
