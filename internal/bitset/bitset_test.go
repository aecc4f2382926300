package bitset_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"outofssa/internal/bitset"
)

func TestBasicOps(t *testing.T) {
	s := bitset.New(10)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(3)
	s.Add(200) // beyond initial capacity: must grow
	s.Add(3)   // idempotent
	if !s.Has(3) || !s.Has(200) || s.Has(4) || s.Has(1000) {
		t.Fatal("membership wrong")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Remove(3)
	s.Remove(999) // no-op
	if s.Has(3) || s.Len() != 1 {
		t.Fatal("remove wrong")
	}
	if got := s.Elems(); len(got) != 1 || got[0] != 200 {
		t.Fatalf("Elems = %v", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := bitset.New(64)
	b := bitset.New(64)
	for _, x := range []int{1, 5, 64, 100} {
		a.Add(x)
	}
	for _, x := range []int{5, 100, 200} {
		b.Add(x)
	}
	u := a.Copy()
	if changed := u.UnionWith(b); !changed {
		t.Fatal("union should have changed a")
	}
	for _, x := range []int{1, 5, 64, 100, 200} {
		if !u.Has(x) {
			t.Fatalf("union missing %d", x)
		}
	}
	if u.UnionWith(b) {
		t.Fatal("second union must be a no-op")
	}
	d := a.Copy()
	d.DiffWith(b)
	if d.Has(5) || d.Has(100) || !d.Has(1) || !d.Has(64) {
		t.Fatal("diff wrong")
	}
}

func TestEqualAcrossCapacities(t *testing.T) {
	a := bitset.New(1)
	b := bitset.New(1000)
	a.Add(7)
	b.Add(7)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equal sets with different capacities must compare equal")
	}
	b.Add(999)
	if a.Equal(b) {
		t.Fatal("different sets compare equal")
	}
}

// Property: a bitset behaves like a map[int]bool under a random operation
// sequence.
func TestAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := bitset.New(16)
		m := make(map[int]bool)
		for op := 0; op < 300; op++ {
			x := rng.Intn(300)
			switch rng.Intn(3) {
			case 0:
				s.Add(x)
				m[x] = true
			case 1:
				s.Remove(x)
				delete(m, x)
			default:
				if s.Has(x) != m[x] {
					return false
				}
			}
		}
		if s.Len() != len(m) {
			return false
		}
		for _, e := range s.Elems() {
			if !m[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachOrder(t *testing.T) {
	s := bitset.New(300)
	want := []int{0, 63, 64, 65, 128, 255}
	for _, x := range want {
		s.Add(x)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
}

func TestClear(t *testing.T) {
	s := bitset.New(10)
	s.Add(5)
	s.Clear()
	if !s.Empty() {
		t.Fatal("clear failed")
	}
}

func TestCopyFrom(t *testing.T) {
	src := bitset.New(300)
	src.Add(7)
	src.Add(299)
	dst := bitset.New(10)
	dst.Add(3)
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("CopyFrom not equal to source")
	}
	dst.Add(50)
	if src.Has(50) {
		t.Fatal("CopyFrom aliases source storage")
	}
	// Shrinking copy reuses storage.
	big := bitset.New(1000)
	big.Add(900)
	big.CopyFrom(src)
	if !big.Equal(src) || big.Has(900) {
		t.Fatal("shrinking CopyFrom wrong")
	}
}

func TestPool(t *testing.T) {
	var p bitset.Pool
	s := p.Get(100)
	s.Add(42)
	p.Put(s)
	r := p.Get(50)
	if r != s {
		t.Fatal("pool did not reuse the freed set")
	}
	if !r.Empty() {
		t.Fatal("pooled set not cleared on Get")
	}
	// Requesting a bigger domain than the pooled set held must still work.
	p.Put(r)
	big := p.Get(10000)
	big.Add(9999)
	if !big.Has(9999) {
		t.Fatal("pooled set did not grow for larger domain")
	}
	p.Put(nil) // no-op
}

func TestNewSlab(t *testing.T) {
	sets := bitset.NewSlab(100, 5)
	if len(sets) != 5 {
		t.Fatalf("slab count = %d", len(sets))
	}
	for i, s := range sets {
		s.Add(i)
		s.Add(99)
	}
	for i, s := range sets {
		if !s.Has(i) || !s.Has(99) || s.Len() != 2 {
			t.Fatalf("slab set %d polluted by neighbours: %v", i, s.Elems())
		}
	}
	// Growing past the slab capacity must not corrupt neighbours.
	sets[0].Add(500)
	if sets[1].Has(500-64*((100+63)/64)) || !sets[0].Has(500) || !sets[0].Has(99) {
		t.Fatal("slab grow corrupted neighbour or lost elements")
	}
}
