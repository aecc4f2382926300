// Package regalloc provides the Chaitin-style aggressive register
// coalescer used as the "+C" post-pass of the paper's experiments
// ("repeated register coalescing", after Dupont de Dinechin et al.).
// Outside the register-allocation context it is an aggressive coalescer:
// any move whose source and destination do not interfere is eliminated,
// with no conservatism about graph colorability, and interference is
// rebuilt and re-scanned until a fixed point ("repeated").
//
// It operates on φ-free machine code (the output of the out-of-SSA
// translators) where variables may have several definitions. The union
// loop only ever asks whether two copy operands interfere, so each round
// numbers the copy operands densely, solves their liveness with its own
// backward dataflow, and builds their interference as one flat bit
// matrix; no other value gets a row, a column or a liveness bit.
package regalloc

import (
	"math/bits"

	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
)

// Stats describes one aggressive coalescing run.
type Stats struct {
	// MovesRemoved counts eliminated copies.
	MovesRemoved int
	// Rounds is the number of build-coalesce rounds until fixed point.
	Rounds int
}

// AppendCounters appends the statistics to dst as trace counters, in
// field order.
func (s *Stats) AppendCounters(dst []obs.Counter) []obs.Counter {
	return append(dst,
		obs.Counter{Name: "MovesRemoved", Value: int64(s.MovesRemoved)},
		obs.Counter{Name: "Rounds", Value: int64(s.Rounds)})
}

// fullGraphRound, when set, replaces every round of AggressiveCoalesce.
// Only the package's tests set it (export_test.go), to the full
// interference graph over all values that the copy-operand rounds must
// match.
var fullGraphRound func(f *ir.Func) int

// AggressiveCoalesce repeatedly computes interference in f and removes
// every move whose operands do not interfere, merging their live ranges.
// Two dedicated registers are never merged; a virtual merged with a
// dedicated register takes the register's name (partial coalescing of
// the virtual onto the register is NOT possible here — this is precisely
// limitation [CC1] that SSA-level pinning avoids). f must be φ-free.
func AggressiveCoalesce(f *ir.Func) *Stats {
	st := &Stats{}
	round := fullGraphRound
	if round == nil {
		round = newCoalescer(f).round
	}
	for {
		st.Rounds++
		removed := round(f)
		st.MovesRemoved += removed
		if removed == 0 {
			return st
		}
	}
}

// coalescer holds the buffers of one AggressiveCoalesce call; every
// round reuses them. Rounds remove moves and rename operands but never
// touch the CFG, so reachability is found once per call.
type coalescer struct {
	// idx maps a value to its dense copy-operand index, -1 for every
	// other value; vals maps an index back. A round numbers the copy
	// operands afresh and resets idx when it ends.
	idx  []int32
	vals []ir.ValueID
	// moves holds each copy's (def, use) indices in program order, and
	// drop marks the copies the round removes.
	moves  [][2]int32
	drop   []bool
	parent []int32

	// order lists the blocks reachable from the entry in postorder, the
	// dataflow's visiting order, and reach marks them. An unreachable
	// block has empty liveness, as in package liveness.
	order []*ir.Block
	reach []bool

	// words is the width of one set of copy operands. sets holds gen,
	// kill and live-in for every block ID, one set each; adj is the
	// interference matrix, one set per copy operand; cur is scratch.
	words int
	sets  []uint64
	adj   []uint64
	cur   []uint64
}

// newCoalescer sizes the buffers whose length the first round sets:
// later rounds only see fewer copies.
func newCoalescer(f *ir.Func) *coalescer {
	n := 0
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.Copy {
				n++
			}
		}
	}
	c := &coalescer{
		idx:    make([]int32, f.NumValues()),
		vals:   make([]ir.ValueID, 0, 2*n),
		moves:  make([][2]int32, 0, n),
		drop:   make([]bool, n),
		parent: make([]int32, 0, 2*n),
	}
	for i := range c.idx {
		c.idx[i] = -1
	}
	return c
}

// round does one pass: number the copy operands, compute their
// interference, union-coalesce copies greedily (merging adjacency
// conservatively), and finally rewrite the function. When every copy
// is a self-copy or joins two physical registers, nothing can merge,
// and the round only drops the self-copies.
func (c *coalescer) round(f *ir.Func) int {
	if c.number(f) {
		c.solveLiveness(f)
		c.buildInterference(f)
	}
	removed := c.union(f)
	if removed > 0 {
		c.rewrite(f)
	}
	for _, v := range c.vals {
		c.idx[v] = -1
	}
	return removed
}

// number indexes the operands of every copy and reports whether some
// copy could merge two values.
func (c *coalescer) number(f *ir.Func) bool {
	c.vals, c.moves = c.vals[:0], c.moves[:0]
	mergeable := false
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() != ir.Copy {
				continue
			}
			d, s := in.Def(0), in.Use(0)
			if d != s && !(f.IsPhys(d) && f.IsPhys(s)) {
				mergeable = true
			}
			c.moves = append(c.moves, [2]int32{c.index(d), c.index(s)})
		}
	}
	return mergeable
}

func (c *coalescer) index(v ir.ValueID) int32 {
	if c.idx[v] < 0 {
		c.idx[v] = int32(len(c.vals))
		c.vals = append(c.vals, v)
	}
	return c.idx[v]
}

// set returns the i-th set of the per-block family (0 gen, 1 kill,
// 2 live-in) of block id.
func (c *coalescer) set(id ir.BlockID, i int) []uint64 {
	off := (3*int(id) + i) * c.words
	return c.sets[off : off+c.words]
}

func (c *coalescer) row(x int) []uint64 {
	return c.adj[x*c.words : (x+1)*c.words]
}

// liveOut sets out to the union of the live-ins of b's successors.
func (c *coalescer) liveOut(b *ir.Block, out []uint64) {
	clear(out)
	for _, s := range b.Succs() {
		for j, w := range c.set(s, 2) {
			out[j] |= w
		}
	}
}

// solveLiveness computes the live-in set of copy operands of every
// reachable block: the backward dataflow of package liveness projected
// onto these values, which is exact because liveness is solved per
// value and, without φs, the engine treats every operand alike.
func (c *coalescer) solveLiveness(f *ir.Func) {
	if c.order == nil {
		c.order = cfg.Postorder(f)
		c.reach = make([]bool, f.NumBlocks())
		for _, b := range c.order {
			c.reach[b.ID] = true
		}
	}
	c.words = (len(c.vals) + 63) / 64
	c.sets = resize(c.sets, 3*f.NumBlocks()*c.words)
	for _, b := range c.order {
		gen, kill := c.set(b.ID, 0), c.set(b.ID, 1)
		for _, in := range b.Instrs() {
			for _, u := range in.Uses() {
				if x := c.idx[u.Val]; x >= 0 && !has(kill, x) {
					add(gen, x)
				}
			}
			for _, d := range in.Defs() {
				if x := c.idx[d.Val]; x >= 0 {
					add(kill, x)
				}
			}
		}
	}
	c.cur = resize(c.cur, c.words)
	for changed := true; changed; {
		changed = false
		for _, b := range c.order {
			c.liveOut(b, c.cur)
			gen, kill, in := c.set(b.ID, 0), c.set(b.ID, 1), c.set(b.ID, 2)
			for j, out := range c.cur {
				if w := gen[j] | out&^kill[j]; w != in[j] {
					in[j] = w
					changed = true
				}
			}
		}
	}
}

// buildInterference fills the matrix (Chaitin): at each definition
// point, the defined value interferes with everything live after the
// instruction; for a move d = s, d does not interfere with s on account
// of this def.
func (c *coalescer) buildInterference(f *ir.Func) {
	c.adj = resize(c.adj, len(c.vals)*c.words)
	cur := c.cur
	for _, b := range f.Blocks() {
		if c.reach[b.ID] {
			c.liveOut(b, cur)
		} else {
			clear(cur)
		}
		for i := b.NumInstrs() - 1; i >= 0; i-- {
			in := b.Instr(i)
			defs := in.Defs()
			for _, d := range defs {
				if x := c.idx[d.Val]; x >= 0 {
					del(cur, x)
				}
			}
			if in.Op() == ir.Copy {
				// Move exception; the use loop below puts s back.
				del(cur, c.idx[in.Use(0)])
			}
			for _, d := range defs {
				x := c.idx[d.Val]
				if x < 0 {
					continue
				}
				c.interfere(x, cur)
				// Multiple defs of one instruction are born simultaneously.
				for _, d2 := range defs {
					if y := c.idx[d2.Val]; y >= 0 && y != x {
						add(c.row(int(x)), y)
						add(c.row(int(y)), x)
					}
				}
			}
			for _, u := range in.Uses() {
				if x := c.idx[u.Val]; x >= 0 {
					add(cur, x)
				}
			}
		}
	}
}

// interfere makes x interfere with every member of s, keeping the
// matrix symmetric.
func (c *coalescer) interfere(x int32, s []uint64) {
	row := c.row(int(x))
	for j, w := range s {
		row[j] |= w
		for ; w != 0; w &= w - 1 {
			add(c.row(64*j+bits.TrailingZeros64(w)), x)
		}
	}
}

func (c *coalescer) find(x int32) int32 {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// union is the greedy union round over all moves, in program order.
func (c *coalescer) union(f *ir.Func) int {
	c.parent = c.parent[:0]
	for i := range c.vals {
		c.parent = append(c.parent, int32(i))
	}
	c.drop = resize(c.drop, len(c.moves))
	removed := 0
	for i, m := range c.moves {
		d, s := c.find(m[0]), c.find(m[1])
		if d == s {
			c.drop[i] = true
			removed++
			continue
		}
		if f.IsPhys(c.vals[d]) && f.IsPhys(c.vals[s]) {
			continue
		}
		if has(c.row(int(d)), s) {
			continue
		}
		// Merge s into d (or d into s if s is the physical one).
		root, child := d, s
		if f.IsPhys(c.vals[s]) {
			root, child = s, d
		}
		c.parent[child] = root
		// Everything adjacent to child is now adjacent to root.
		c.interfere(root, c.row(int(child)))
		c.drop[i] = true
		removed++
	}
	return removed
}

// rewrite renames operands through the union-find and drops the
// coalesced moves.
func (c *coalescer) rewrite(f *ir.Func) {
	leader := func(v ir.ValueID) ir.ValueID {
		if x := c.idx[v]; x >= 0 {
			return c.vals[c.find(x)]
		}
		return v
	}
	move := 0
	for _, b := range f.Blocks() {
		for i := 0; i < b.NumInstrs(); {
			in := b.Instr(i)
			if in.Op() == ir.Copy {
				move++
				if c.drop[move-1] {
					b.RemoveAt(i)
					continue
				}
			}
			// Only operands whose class merged change; writing the rest
			// would only cost a COW check and a generation bump each.
			for j := 0; j < in.NumDefs(); j++ {
				v := in.Def(j)
				if l := leader(v); l != v {
					in.SetDefVal(j, l)
				}
			}
			for j := 0; j < in.NumUses(); j++ {
				v := in.Use(j)
				if l := leader(v); l != v {
					in.SetUseVal(j, l)
				}
			}
			i++
		}
	}
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func add(s []uint64, x int32)      { s[x>>6] |= 1 << (x & 63) }
func del(s []uint64, x int32)      { s[x>>6] &^= 1 << (x & 63) }
func has(s []uint64, x int32) bool { return s[x>>6]&(1<<(x&63)) != 0 }
