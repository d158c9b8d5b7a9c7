package store

import (
	"container/list"
	"sync"
)

// LRU is a thread-safe least-recently-used map from keys to values: the
// memory tier in front of a Dir.
type LRU[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	index    map[string]*list.Element
}

// lruEntry is one list element's payload.
type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns an empty LRU holding up to capacity entries (below 1 is
// clamped to 1).
func NewLRU[V any](capacity int) *LRU[V] {
	return &LRU[V]{capacity: max(capacity, 1), ll: list.New(), index: make(map[string]*list.Element)}
}

// Get returns the value stored under key, promoting it to most recently
// used.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores v under key as the most recently used entry, evicting the
// least recently used one beyond capacity.
func (c *LRU[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = v
		return
	}
	c.index[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
	if c.ll.Len() > c.capacity {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.index, last.Value.(*lruEntry[V]).key)
	}
}
