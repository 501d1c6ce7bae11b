// Package lru is a bounded LRU map with get-or-compute: serving's result
// LRU and profile cache, and exp's replay-class cache.
package lru

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"hybridmem/internal/obs"
)

// Cache is a mutex-guarded map from string keys to values of type V, with
// get-or-compute (Do) that runs at most one computation per key at a time.
// Hits promote; inserts beyond the bound evict the least recently used
// entry. An entry is a value or a negative entry: a key's permanent
// failure, kept for a TTL (AddNegative) under the same bound.
type Cache[V any] struct {
	// Now is the expiry clock of negative entries; tests inject a fake
	// before first use.
	Now func() time.Time

	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recent; values are *entry
	items   map[string]*list.Element // key -> element in order
	flights map[string]*flight[V]    // computations in progress, by key
}

// entry is one cached value or negative entry.
type entry[V any] struct {
	key     string
	val     V
	failure error     // non-nil: a negative entry
	expires time.Time // negative entries only
}

// flight is one computation in progress; done closes when it ends.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache bounded to max entries (max <= 0 means 1).
func New[V any](max int) *Cache[V] {
	if max <= 0 {
		max = 1
	}
	return &Cache[V]{Now: time.Now, max: max, order: list.New(), items: map[string]*list.Element{}, flights: map[string]*flight[V]{}}
}

// Get returns the cached answer for key, promoting it: a value, or the
// failure of a live negative entry. An expired negative entry is dropped
// and reported absent, so the next caller recomputes the key.
func (c *Cache[V]) Get(key string) (val V, failure error, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

// get is Get with c.mu held.
func (c *Cache[V]) get(key string) (val V, failure error, ok bool) {
	el, ok := c.items[key]
	if !ok {
		return val, nil, false
	}
	e := el.Value.(*entry[V])
	if e.failure != nil && !c.Now().Before(e.expires) {
		c.order.Remove(el)
		delete(c.items, key)
		return val, nil, false
	}
	c.order.MoveToFront(el)
	return e.val, e.failure, true
}

// Do returns key's answer — a resident value, or a live negative entry's
// failure — running fn for it at most once at a time. A miss joins the
// flight in progress for key or, finding none, leads one: it runs fn and,
// on success, stores the value before releasing the flight, so no caller
// can miss both. A failure stores nothing. ran reports whether this call
// ran fn. A waiter whose own ctx ends returns ctx.Err(); one whose flight
// failed on a context error (its leader's request timed out or was
// cancelled) while its own ctx is live looks again, and leads if it must.
// Time spent waiting is recorded as ctx's singleflight_wait stage.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func() (V, error)) (val V, ran bool, err error) {
	for {
		c.mu.Lock()
		if v, failure, ok := c.get(key); ok {
			c.mu.Unlock()
			return v, false, failure
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
			c.put(&entry[V]{key: key, val: f.val})
		}
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return f.val, true, f.err
	}
}

// Add inserts (or refreshes) key's value, evicting the LRU entry when
// full. A value replaces a negative entry under the same key.
func (c *Cache[V]) Add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&entry[V]{key: key, val: val})
}

// AddNegative remembers key's permanent failure for ttl.
func (c *Cache[V]) AddNegative(key string, failure error, ttl time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(&entry[V]{key: key, failure: failure, expires: c.Now().Add(ttl)})
}

// put installs e as the most recent entry for its key; c.mu is held.
func (c *Cache[V]) put(e *entry[V]) {
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.items[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
