package dsim

import "container/list"

// lru is a tiny bounded LRU keyed by string. Workers use it for decoded
// route-RIB files, restored networks, and prepared engines; sizes are small
// (tens of entries), so a list + map is plenty.
//
// Not safe for concurrent use — callers hold the worker's cache mutex.
type lru[V any] struct {
	max int
	ll  *list.List
	m   map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU creates an LRU holding at most max entries (max < 1 disables it:
// every get misses and put is a no-op).
func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *lru[V]) get(key string) (V, bool) {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or refreshes an entry, returning the keys it evicted to stay
// within bounds (so callers can count and log evictions).
func (c *lru[V]) put(key string, val V) (evicted []string) {
	if c.max < 1 {
		return nil
	}
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return nil
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		k := oldest.Value.(*lruEntry[V]).key
		delete(c.m, k)
		evicted = append(evicted, k)
	}
	return evicted
}
