package cfg_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// domInputs returns the 228 suite functions, random programs in both
// loop shapes, and random block graphs with irreducible loops,
// self-loops, parallel edges and unreachable blocks, up to 300 blocks.
func domInputs(t *testing.T) []*ir.Func {
	t.Helper()
	var funcs []*ir.Func
	for _, s := range workload.All() {
		funcs = append(funcs, s.Funcs...)
	}
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	for seed := int64(0); seed < 200; seed++ {
		opt := testprog.DefaultRandOptions()
		opt.BottomTestedLoops = seed%2 == 1
		funcs = append(funcs, testprog.Rand(seed, opt))
	}
	for seed := int64(0); seed < 300; seed++ {
		funcs = append(funcs, randomCFG(seed, 2+int(seed%12)))
	}
	for _, n := range []int{50, 100, 300} {
		funcs = append(funcs, randomCFG(int64(n), n))
	}
	return funcs
}

// TestDominatorChildrenMatchIdom: Children[b] lists exactly the blocks
// whose Idom is b, in reverse postorder, and is nil for a leaf; each
// list is capped, so an append to one never shows in another.
func TestDominatorChildrenMatchIdom(t *testing.T) {
	for _, f := range domInputs(t) {
		dom := cfg.Dominators(f)
		if len(dom.Children) != f.NumBlocks() {
			t.Fatalf("%s: %d children lists for %d blocks", f.Name, len(dom.Children), f.NumBlocks())
		}
		want := make([][]*ir.Block, f.NumBlocks())
		for _, b := range cfg.ReversePostorder(f) {
			if p := dom.Idom[b.ID]; p != nil {
				want[p.ID] = append(want[p.ID], b)
			}
		}
		for id, got := range dom.Children {
			b := f.Block(ir.BlockID(id))
			if fmt.Sprint(got) != fmt.Sprint(want[id]) {
				t.Fatalf("%s: Children(%v) = %v, want %v", f.Name, b, got, want[id])
			}
			if len(got) == 0 && got != nil {
				t.Fatalf("%s: leaf %v has a non-nil empty children list", f.Name, b)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: Children(%v) has capacity %d beyond its %d blocks", f.Name, b, cap(got), len(got))
			}
		}
		before := fmt.Sprint(dom.Children)
		for _, kids := range dom.Children {
			_ = append(kids, f.Entry())
		}
		if after := fmt.Sprint(dom.Children); after != before {
			t.Fatalf("%s: appending to the children lists changed them\nbefore %s\nafter  %s", f.Name, before, after)
		}
	}
}

// TestDominatorsAllocsBounded: Dominators allocates a constant number
// of times per call, whatever the block count: the orders, the idom
// table, the numbering and the children lists are each laid out once,
// where appending each block to its parent's list took up to 109
// allocations per call on these inputs. The garbage collector is off
// during the call, whose cycles can add the runtime's own allocations
// to the count.
func TestDominatorsAllocsBounded(t *testing.T) {
	const bound = 16
	calls, worst := 0, uint64(0)
	for _, f := range domInputs(t) {
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		cfg.Dominators(f)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		n := after.Mallocs - before.Mallocs
		if n > bound {
			t.Errorf("%s (%d blocks): Dominators made %d allocations, want at most %d", f.Name, f.NumBlocks(), n, bound)
		}
		calls, worst = calls+1, max(worst, n)
	}
	t.Logf("%d calls, at most %d allocations per call", calls, worst)
}
