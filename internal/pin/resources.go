// Package pin implements the paper's pinning mechanism (§2.1): operands
// are pre-colored to resources, where a resource is either a dedicated
// physical register or a virtual register standing for an equivalence
// class of variables pinned together.
//
// Variable pinning (pinning a definition) merges the variable into the
// resource's class; the Resources union-find tracks these classes. Use
// pinning (ABI argument slots, 2-operand reads) constrains only the
// textual occurrence and is read directly from ir.Operand pins by the
// reconstruction phase.
package pin

import (
	"fmt"

	"outofssa/internal/ir"
)

// Resources is a union-find over the values of a function, where each
// class is a resource: the set of variables pinned together, possibly
// anchored by one dedicated physical register.
type Resources struct {
	fn     *ir.Func
	parent []ir.ValueID
	rank   []uint8

	// Every class's ascending member list is a window on slab: root r's
	// list is slab[lo[r]:hi[r]]. NewResources lays out the lists of its
	// classes in one pass, in value order; each later Union appends the
	// merged list, and grow a new value's singleton list, past the end.
	// Nothing is ever written below len(slab), so a list stays valid
	// after the class it described has been merged away, and the slab
	// grows by doubling (see appendList).
	slab   []ir.ValueID
	lo, hi []int32

	// gen counts class-changing operations (successful Unions), and
	// changed records, per root, the generation of the last Union that
	// grew its class. Union is the only operation that changes any
	// class's member set (new values admitted by grow start as singletons
	// and cannot retroactively change an existing class), so a
	// resource-level verdict about some roots recorded at generation g
	// stays valid while Changed of each of them is at most g: merging two
	// other classes leaves it alone. Each successful Union joins two
	// classes, so gen never exceeds the number of values.
	gen     uint32
	changed []uint32
}

// Gen returns the class-mutation generation counter. Two calls returning
// the same value guarantee no class was merged in between.
func (r *Resources) Gen() uint64 { return uint64(r.gen) }

// Changed returns the generation of the last Union that grew root's
// class, or 0 if none has. root must be a representative (a Find
// result): the class of a value that is no longer one has been merged
// away.
func (r *Resources) Changed(root ir.ValueID) uint64 { return uint64(r.changed[root]) }

// Func returns the function whose values the classes partition.
func (r *Resources) Func() *ir.Func { return r.fn }

// NewResources builds the classes implied by the current definition pins
// of f: for every definition operand with a pin, the defined value joins
// the pin's class. The unions link parents only; the member lists of
// all classes are then laid out at once.
func NewResources(f *ir.Func) (*Resources, error) {
	n := f.NumValues()
	r := &Resources{
		fn:      f,
		parent:  make([]ir.ValueID, n),
		rank:    make([]uint8, n),
		changed: make([]uint32, n),
		lo:      make([]int32, n),
		hi:      make([]int32, n),
		slab:    make([]ir.ValueID, n),
	}
	for i := range r.parent {
		r.parent[i] = ir.ValueID(i)
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if !d.Pinned() {
					continue
				}
				if _, _, err := r.link(d.Val, d.Pin()); err != nil {
					return nil, fmt.Errorf("%s: %q: %v", f.Name, in, err)
				}
			}
		}
	}
	// Lay the lists out by root: hi counts each class's members, then
	// serves as its fill cursor, so visiting the values in ascending
	// order sorts every list.
	for v := range r.parent {
		r.hi[r.Find(ir.ValueID(v))]++
	}
	off := int32(0)
	for v, p := range r.parent {
		if int(p) == v {
			r.lo[v], r.hi[v], off = off, off, off+r.hi[v]
		}
	}
	for v := range r.parent {
		root := r.Find(ir.ValueID(v))
		r.slab[r.hi[root]] = ir.ValueID(v)
		r.hi[root]++
	}
	return r, nil
}

// grow admits values created after the Resources was built (repair
// variables, parallel-copy temporaries); they start as singletons.
func (r *Resources) grow(id ir.ValueID) {
	for len(r.parent) <= int(id) {
		v := ir.ValueID(len(r.parent))
		r.parent = append(r.parent, v)
		r.rank = append(r.rank, 0)
		r.changed = append(r.changed, 0)
		at := r.reserve(1)
		r.slab = append(r.slab, v)
		r.lo = append(r.lo, at)
		r.hi = append(r.hi, at+1)
	}
}

// Find returns the representative value of v's resource. Physical
// registers are always their class's representative.
func (r *Resources) Find(v ir.ValueID) ir.ValueID {
	r.grow(v)
	for r.parent[v] != v {
		r.parent[v] = r.parent[r.parent[v]]
		v = r.parent[v]
	}
	return v
}

// link joins the classes of a and b in the union-find alone, and
// returns the surviving root and the root it absorbed (the same root
// twice when a and b already share a class). Merging two classes that
// both contain a physical register is an error.
func (r *Resources) link(a, b ir.ValueID) (root, absorbed ir.ValueID, err error) {
	ra, rb := r.Find(a), r.Find(b)
	if ra == rb {
		return ra, ra, nil
	}
	f := r.fn
	if f.IsPhys(ra) && f.IsPhys(rb) {
		return ir.NoValue, ir.NoValue, fmt.Errorf("pin: cannot merge physical registers %s and %s", f.VStr(ra), f.VStr(rb))
	}
	// The physical register, if any, must be the root so Find reports it.
	switch {
	case f.IsPhys(rb):
		ra, rb = rb, ra
	case f.IsPhys(ra):
		// keep
	case r.rank[ra] < r.rank[rb]:
		ra, rb = rb, ra
	}
	r.parent[rb] = ra
	if r.rank[ra] == r.rank[rb] {
		r.rank[ra]++
	}
	r.gen++
	r.changed[ra] = r.gen
	return ra, rb, nil
}

// Union merges the resources of a and b and returns the representative.
// Merging two classes that both contain a physical register is an error
// (two distinct dedicated registers always strongly interfere).
func (r *Resources) Union(a, b ir.ValueID) (ir.ValueID, error) {
	root, absorbed, err := r.link(a, b)
	if err != nil || root == absorbed {
		return root, err
	}
	x, y := r.classOf(root), r.classOf(absorbed)
	at := r.reserve(len(x) + len(y))
	for len(x) > 0 && len(y) > 0 {
		if x[0] < y[0] {
			r.slab, x = append(r.slab, x[0]), x[1:]
		} else {
			r.slab, y = append(r.slab, y[0]), y[1:]
		}
	}
	r.slab = append(append(r.slab, x...), y...)
	r.lo[root], r.hi[root] = at, int32(len(r.slab))
	return root, nil
}

// reserve makes room for n more entries at the end of the slab and
// returns where they start. A full slab moves to a new array of twice
// its capacity (or more, if n needs it); lists already handed out keep
// reading the old one, which is never written again.
func (r *Resources) reserve(n int) int32 {
	if len(r.slab)+n > cap(r.slab) {
		s := make([]ir.ValueID, len(r.slab), max(2*cap(r.slab), len(r.slab)+n))
		copy(s, r.slab)
		r.slab = s
	}
	return int32(len(r.slab))
}

// Members returns every value in v's resource class, in ascending ID
// order. Singleton classes return just the value itself. The slice is
// the class's own list, returned without a copy: callers must not write
// into it. It stays valid across later Unions, which write each merged
// list afresh and never into a list already handed out; its capacity
// ends with it, so an append to it copies.
func (r *Resources) Members(v ir.ValueID) []ir.ValueID {
	return r.classOf(r.Find(v))
}

// classOf returns root's member list.
func (r *Resources) classOf(root ir.ValueID) []ir.ValueID {
	lo, hi := r.lo[root], r.hi[root]
	return r.slab[lo:hi:hi]
}

// Roots returns the representative of every multi-member class, in
// ascending ID order. verify.checkPins walks them for its strong-
// interference scan.
func (r *Resources) Roots() []ir.ValueID {
	var out []ir.ValueID
	for v, p := range r.parent {
		if int(p) == v && r.hi[v]-r.lo[v] > 1 {
			out = append(out, p)
		}
	}
	return out
}
