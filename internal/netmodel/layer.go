package netmodel

import "maps"

// Layer is a copy-on-write map. A plain layer holds every entry itself. A
// layer laid over another (Over) reads through to that one's map, which must
// stay frozen while it is in use, and holds only its own writes: an own
// entry, the zero value included, hides the one below. Branching a frozen map
// so costs what the branch writes, not a copy. The zero Layer is an empty
// plain one.
type Layer[K comparable, V any] struct {
	own   map[K]V
	under map[K]V // nil in a plain layer
}

// NewLayer returns an empty plain layer with room for hint entries.
func NewLayer[K comparable, V any](hint int) Layer[K, V] {
	return Layer[K, V]{own: make(map[K]V, hint)}
}

// Lookup returns k's entry and whether it is the layer's own: an own entry
// costs one map lookup, anything else a second one below.
func (l *Layer[K, V]) Lookup(k K) (v V, mine bool) {
	if v, mine = l.own[k]; mine || l.under == nil {
		return v, mine
	}
	return l.under[k], false
}

// Get returns k's entry: its own, else the one below.
func (l *Layer[K, V]) Get(k K) V {
	v, _ := l.Lookup(k)
	return v
}

// Set writes k's own entry.
func (l *Layer[K, V]) Set(k K, v V) {
	if l.own == nil {
		l.own = make(map[K]V)
	}
	l.own[k] = v
}

// Delete removes k: from a plain layer's map; over another, by a zero own
// entry hiding the one below.
func (l *Layer[K, V]) Delete(k K) {
	if l.under == nil {
		delete(l.own, k)
		return
	}
	var zero V
	l.Set(k, zero)
}

// All calls f on every entry, in no particular order: the layer's own, zero
// values included, then those below that none of them hides.
func (l *Layer[K, V]) All(f func(K, V)) {
	for k, v := range l.own {
		f(k, v)
	}
	for k, v := range l.under {
		if _, hidden := l.own[k]; !hidden {
			f(k, v)
		}
	}
}

// OwnLen returns the number of the layer's own entries: every entry of a
// plain layer, the writes of one laid over another.
func (l *Layer[K, V]) OwnLen() int { return len(l.own) }

// Bound returns an upper bound on the number of entries: the own ones plus
// those below.
func (l *Layer[K, V]) Bound() int { return len(l.own) + len(l.under) }

// Over returns a layer laid over l, which must not be written while the new
// one is in use; any number of layers may read it at once. Laid over a layer
// itself laid over another, the new one reads through to the same map and
// copies only l's own writes.
func (l *Layer[K, V]) Over() Layer[K, V] {
	if l.under == nil {
		return Layer[K, V]{under: l.own}
	}
	return Layer[K, V]{own: maps.Clone(l.own), under: l.under}
}

// Grow gives a plain layer room for n more entries, rehashing its map once
// instead of doubling it as they are inserted. It is a no-op on a layer laid
// over another, whose map holds only its writes.
func (l *Layer[K, V]) Grow(n int) {
	if n <= 0 || l.under != nil {
		return
	}
	grown := make(map[K]V, len(l.own)+n)
	maps.Copy(grown, l.own)
	l.own = grown
}
