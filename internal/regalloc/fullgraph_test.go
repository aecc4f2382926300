package regalloc

import (
	"outofssa/internal/analysis"
	"outofssa/internal/bitset"
	"outofssa/internal/ir"
)

// fullGraphCoalesceRound is the reference round: the interference graph
// over every value of f, built from the shared liveness engine, then the
// same union loop and rewrite as the copy-operand rounds. Its verdicts
// must equal theirs on φ-free code (TestCoalesceMatchesFullGraph,
// TestTablesUnderFullGraphOracle).
func fullGraphCoalesceRound(f *ir.Func) int {
	nv := f.NumValues()
	live := analysis.Liveness(f)

	// Interference graph (Chaitin): at each definition point, the defined
	// value interferes with everything live after the instruction; for a
	// move d = s, d does not interfere with s on account of this def.
	adj := make([]*bitset.Set, nv)
	for i := range adj {
		adj[i] = bitset.New(nv)
	}
	addEdge := func(a, b int) {
		if a != b {
			adj[a].Add(b)
			adj[b].Add(a)
		}
	}
	for _, b := range f.Blocks() {
		cur := live.ExitLiveSet(b).Copy()
		for i := b.NumInstrs() - 1; i >= 0; i-- {
			in := b.Instr(i)
			for _, d := range in.Defs() {
				cur.Remove(int(d.Val))
			}
			for _, d := range in.Defs() {
				dv := d.Val
				cur.ForEach(func(l int) {
					if in.Op() == ir.Copy && l == int(in.Use(0)) {
						return // move exception
					}
					addEdge(int(dv), l)
				})
				// Multiple defs of one instruction are born simultaneously.
				for _, d2 := range in.Defs() {
					addEdge(int(dv), int(d2.Val))
				}
			}
			for _, u := range in.Uses() {
				cur.Add(int(u.Val))
			}
		}
	}

	// Greedy union round over all moves.
	parent := make([]int, nv)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	removedMoves := make(map[*ir.Instr]bool)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() != ir.Copy {
				continue
			}
			d, s := find(int(in.Def(0))), find(int(in.Use(0)))
			if d == s {
				removedMoves[in] = true
				continue
			}
			if f.IsPhys(ir.ValueID(d)) && f.IsPhys(ir.ValueID(s)) {
				continue
			}
			if adj[d].Has(s) {
				continue
			}
			// Merge s into d (or d into s if s is the physical one).
			root, child := d, s
			if f.IsPhys(ir.ValueID(s)) {
				root, child = s, d
			}
			parent[child] = root
			adj[root].UnionWith(adj[child])
			// Keep adjacency symmetric: everything adjacent to child is now
			// adjacent to root.
			adj[child].ForEach(func(n int) { adj[n].Add(root) })
			removedMoves[in] = true
		}
	}
	if len(removedMoves) == 0 {
		return 0
	}

	// Rewrite operands through the union-find and drop coalesced moves.
	for _, b := range f.Blocks() {
		for idx := 0; idx < b.NumInstrs(); {
			in := b.Instr(idx)
			if removedMoves[in] {
				b.RemoveAt(idx)
				continue
			}
			for i := 0; i < in.NumDefs(); i++ {
				in.SetDefVal(i, ir.ValueID(find(int(in.Def(i)))))
			}
			for i := 0; i < in.NumUses(); i++ {
				in.SetUseVal(i, ir.ValueID(find(int(in.Use(i)))))
			}
			idx++
		}
	}
	return len(removedMoves)
}
