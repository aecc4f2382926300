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
	"sort"

	"outofssa/internal/ir"
)

// Resources is a union-find over the values of a function, where each
// class is a resource: the set of variables pinned together, possibly
// anchored by one dedicated physical register.
type Resources struct {
	fn      *ir.Func
	parent  []ir.ValueID
	rank    []int
	members map[ir.ValueID][]ir.ValueID // root -> member values, ascending ID order
	ids     []ir.ValueID                // ids[v] == v: backs the singleton lists

	// gen counts class-changing operations (successful Unions), and
	// changed records, per root, the generation of the last Union that
	// grew its class. Union is the only operation that changes any
	// class's member set (new values admitted by grow start as singletons
	// and cannot retroactively change an existing class), so a
	// resource-level verdict about some roots recorded at generation g
	// stays valid while Changed of each of them is at most g: merging two
	// other classes leaves it alone.
	gen     uint64
	changed []uint64
}

// Gen returns the class-mutation generation counter. Two calls returning
// the same value guarantee no class was merged in between.
func (r *Resources) Gen() uint64 { return r.gen }

// Changed returns the generation of the last Union that grew root's
// class, or 0 if none has. root must be a representative (a Find
// result): the class of a value that is no longer one has been merged
// away.
func (r *Resources) Changed(root ir.ValueID) uint64 { return r.changed[root] }

// Func returns the function whose values the classes partition.
func (r *Resources) Func() *ir.Func { return r.fn }

// NewResources builds the classes implied by the current definition pins
// of f: for every definition operand with a pin, the defined value joins
// the pin's class.
func NewResources(f *ir.Func) (*Resources, error) {
	r := &Resources{
		fn:      f,
		parent:  make([]ir.ValueID, f.NumValues()),
		rank:    make([]int, f.NumValues()),
		members: make(map[ir.ValueID][]ir.ValueID),
		changed: make([]uint64, f.NumValues()),
		ids:     make([]ir.ValueID, f.NumValues()),
	}
	for i := range r.parent {
		r.parent[i] = ir.ValueID(i)
		r.ids[i] = ir.ValueID(i)
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if !d.Pinned() {
					continue
				}
				if _, err := r.Union(d.Val, d.Pin()); err != nil {
					return nil, fmt.Errorf("%s: %q: %v", f.Name, in, err)
				}
			}
		}
	}
	return r, nil
}

// grow admits values created after the Resources was built (repair
// variables, parallel-copy temporaries); they start as singletons.
func (r *Resources) grow(id ir.ValueID) {
	for len(r.parent) <= int(id) {
		r.parent = append(r.parent, ir.ValueID(len(r.parent)))
		r.rank = append(r.rank, 0)
		r.changed = append(r.changed, 0)
		r.ids = append(r.ids, ir.ValueID(len(r.ids)))
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

// Same reports whether a and b are pinned to the same resource.
func (r *Resources) Same(a, b ir.ValueID) bool {
	return r.Find(a) == r.Find(b)
}

// Union merges the resources of a and b and returns the representative.
// Merging two classes that both contain a physical register is an error
// (two distinct dedicated registers always strongly interfere).
func (r *Resources) Union(a, b ir.ValueID) (ir.ValueID, error) {
	ra, rb := r.Find(a), r.Find(b)
	if ra == rb {
		return ra, nil
	}
	f := r.fn
	if f.IsPhys(ra) && f.IsPhys(rb) {
		return ir.NoValue, fmt.Errorf("pin: cannot merge physical registers %s and %s", f.VStr(ra), f.VStr(rb))
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
	r.members[ra] = ir.MergeIDs(r.classOf(ra), r.classOf(rb))
	delete(r.members, rb)
	r.gen++
	r.changed[ra] = r.gen
	return ra, nil
}

// Members returns every value in v's resource class, in ascending ID
// order. Singleton classes return just the value itself. The slice is
// the class's own list, returned without a copy: callers must not write
// into it. It stays valid across later Unions, which build each merged
// list afresh (with len == cap) and never write into a list already
// handed out.
func (r *Resources) Members(v ir.ValueID) []ir.ValueID {
	return r.classOf(r.Find(v))
}

// classOf returns root's member list; a singleton has none stored, and
// its one-element list is a window on ids.
func (r *Resources) classOf(root ir.ValueID) []ir.ValueID {
	if m := r.members[root]; m != nil {
		return m
	}
	return r.ids[root : root+1 : root+1]
}

// IsPhysResource reports whether v's resource contains a dedicated
// register.
func (r *Resources) IsPhysResource(v ir.ValueID) bool {
	return r.fn.IsPhys(r.Find(v))
}

// Roots returns the representative of every multi-member class, in
// ascending ID order. verify.checkPins walks them for its strong-
// interference scan.
func (r *Resources) Roots() []ir.ValueID {
	var out []ir.ValueID
	for id := range r.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
