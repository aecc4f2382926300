// Package bitset implements dense bit sets indexed by small non-negative
// integers (value IDs, block IDs). The liveness and interference analyses
// are set-heavy; dense words keep them fast and allocation-light.
package bitset

import "math/bits"

// Set is a dense bit set. The zero value is an empty set of capacity 0;
// use New to pre-size.
type Set struct {
	words []uint64
}

// New returns a set able to hold values in [0, n) without growing.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

func (s *Set) grow(i int) {
	need := i/64 + 1
	if need > len(s.words) {
		w := make([]uint64, need)
		copy(w, s.words)
		s.words = w
	}
}

// Add inserts i.
func (s *Set) Add(i int) {
	s.grow(i)
	s.words[i/64] |= 1 << uint(i%64)
}

// Remove deletes i.
func (s *Set) Remove(i int) {
	if i/64 < len(s.words) {
		s.words[i/64] &^= 1 << uint(i%64)
	}
}

// Has reports membership of i.
func (s *Set) Has(i int) bool {
	if i < 0 || i/64 >= len(s.words) {
		return false
	}
	return s.words[i/64]&(1<<uint(i%64)) != 0
}

// UnionWith adds every element of o; reports whether s changed.
func (s *Set) UnionWith(o *Set) bool {
	if len(o.words) > len(s.words) {
		s.grow(len(o.words)*64 - 1)
	}
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// DiffWith removes every element of o.
func (s *Set) DiffWith(o *Set) {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= o.words[i]
	}
}

// Copy returns an independent copy of s.
func (s *Set) Copy() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w}
}

// Clear empties the set, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Len returns the number of elements.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain the same elements.
func (s *Set) Equal(o *Set) bool {
	n := len(s.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(o.words) {
			b = o.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// CopyFrom makes s an exact copy of o, reusing s's storage when large
// enough.
func (s *Set) CopyFrom(o *Set) {
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	}
	s.words = s.words[:len(o.words)]
	copy(s.words, o.words)
}

// ForEach calls fn for each element in increasing order.
func (s *Set) ForEach(fn func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Pool recycles scratch sets so query-heavy code (the interference
// analysis' backward block walks) doesn't allocate a fresh Set per
// query. Not safe for concurrent use; each analysis owns its own Pool.
type Pool struct {
	free []*Set
}

// Get returns an empty set able to hold values in [0, n) without
// growing, reusing a pooled set when possible.
func (p *Pool) Get(n int) *Set {
	if len(p.free) == 0 {
		return New(n)
	}
	s := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	need := (n + 63) / 64
	if cap(s.words) < need {
		s.words = make([]uint64, need)
		return s
	}
	s.words = s.words[:need]
	s.Clear()
	return s
}

// Put returns s to the pool for reuse. s must not be used afterwards.
func (p *Pool) Put(s *Set) {
	if s != nil {
		p.free = append(p.free, s)
	}
}

// NewSlab returns count sets, each able to hold values in [0, n),
// carved out of a single backing allocation. The sets must not grow
// past n (Add beyond n-1 would reallocate the grown set's words away
// from the slab, which is safe but defeats the point).
func NewSlab(n, count int) []*Set {
	perSet := (n + 63) / 64
	words := make([]uint64, perSet*count)
	sets := make([]*Set, count)
	hdrs := make([]Set, count)
	for i := range sets {
		hdrs[i].words = words[i*perSet : (i+1)*perSet : (i+1)*perSet]
		sets[i] = &hdrs[i]
	}
	return sets
}
