package sreedhar

import (
	"maps"
	"slices"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/ssa"
	"outofssa/internal/ssaopt"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// scanClasses is the reference the member lists replaced: the scan of
// every value of f, grouping each virtual value under its root in
// ascending ID order.
func scanClasses(c *classes, f *ir.Func) map[int][]ir.ValueID {
	byRoot := make(map[int][]ir.ValueID)
	for id := 0; id < f.NumValues(); id++ {
		if !f.IsPhys(ir.ValueID(id)) {
			r := c.find(id)
			byRoot[r] = append(byRoot[r], ir.ValueID(id))
		}
	}
	return byRoot
}

// checkMemberLists converts f and replays the conversion's unions — φ
// by φ in block order, on each φ's final operands — on a fresh
// union-find that admits the conversion's new values lazily, as the
// real run does. After every union each value's list must equal the
// scan, and the classes map ConvertToCSSA returned must equal the one
// its final loop built from the scan.
func checkMemberLists(t *testing.T, name string, f *ir.Func, opt Options) {
	t.Helper()
	// Split up front (the conversion's own split then finds nothing) so
	// n is what the conversion's union-find started from.
	cfg.SplitCriticalEdges(f)
	n := f.NumValues()
	_, got, err := ConvertToCSSA(f, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c := &classes{fn: f}
	c.grow(n)
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			for _, u := range phi.Uses() {
				c.union(phi.Def(0), u.Val)
				ref := scanClasses(c, f)
				for id := 0; id < f.NumValues(); id++ {
					v := ir.ValueID(id)
					if m, want := c.members(v), ref[c.find(id)]; !slices.Equal(m, want) {
						t.Fatalf("%s: after union(%v, %v): members(%v) = %v, scan %v",
							name, phi.Def(0), u.Val, v, m, want)
					}
				}
			}
		}
	}
	ref := scanClasses(c, f)
	want := make(map[ir.ValueID]ir.ValueID)
	for id := 0; id < f.NumValues(); id++ {
		v := ir.ValueID(id)
		if f.IsPhys(v) {
			continue
		}
		if r := c.findValue(v); r != v {
			want[v] = r
		} else if len(ref[id]) > 1 {
			want[v] = v
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("%s: classes %v, scan %v", name, got, want)
	}
}

// TestMemberListsMatchScan checks the member lists against the scan on
// every paper-suite function (SSA-optimized, as the Sφ columns run
// them) and on random programs.
func TestMemberListsMatchScan(t *testing.T) {
	for _, suite := range []func() *workload.Suite{
		workload.VALcc1, workload.VALcc2, workload.Examples,
		workload.LAILarge, workload.SPECint,
	} {
		s := suite()
		for _, f := range s.Funcs {
			info, err := ssa.Build(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, f.Name, err)
			}
			ssaopt.Optimize(f, info)
			checkMemberLists(t, s.Name+"/"+f.Name, f, Options{
				Unsplittable: func(v ir.ValueID) bool { return info.OrigPhys(v) != ir.NoValue },
			})
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.MustBuild(f)
		checkMemberLists(t, f.Name, f, Options{})
	}
}
