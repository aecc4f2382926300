// Package cfg provides control-flow-graph analyses over ir.Func: block
// orderings, dominator trees (Cooper–Harvey–Kennedy), dominance
// frontiers, loop nesting depth and critical-edge splitting. These are
// the substrate every SSA phase in this repository builds on.
package cfg

import "outofssa/internal/ir"

// Postorder returns the blocks reachable from entry in postorder of a
// depth-first search that visits successors left to right.
func Postorder(f *ir.Func) []*ir.Block {
	seen := make([]bool, f.NumBlocks())
	order := make([]*ir.Block, 0, len(f.Blocks()))
	var walk func(*ir.Block)
	walk = func(b *ir.Block) {
		seen[b.ID] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				walk(f.Block(s))
			}
		}
		order = append(order, b)
	}
	walk(f.Entry())
	return order
}

// reversePostorder returns the reverse of Postorder — a topological-ish
// order in which forward dataflow converges quickly.
func reversePostorder(f *ir.Func) []*ir.Block {
	po := Postorder(f)
	for i, j := 0, len(po)-1; i < j; i, j = i+1, j-1 {
		po[i], po[j] = po[j], po[i]
	}
	return po
}

// reachable returns a dense bitmap of blocks reachable from entry.
func reachable(f *ir.Func) []bool {
	seen := make([]bool, f.NumBlocks())
	for _, b := range Postorder(f) {
		seen[b.ID] = true
	}
	return seen
}

// DomTree is the result of dominator analysis.
type DomTree struct {
	fn *ir.Func
	// Idom[b.ID] is the immediate dominator of b, nil for the entry and
	// for unreachable blocks.
	Idom []*ir.Block
	// Children[b.ID] lists the dominator-tree children of b in reverse
	// postorder (deterministic), nil for a leaf. The lists are
	// capacity-capped sub-slices of one backing array, so an append to
	// one never writes into another.
	Children [][]*ir.Block
	// pre and post number the dominator tree for O(1) Dominates
	// queries; pre is -1 for unreachable blocks.
	pre, post []int
}

// Dominators computes the dominator tree of f using the Cooper, Harvey
// and Kennedy iterative algorithm ("A Simple, Fast Dominance Algorithm").
func Dominators(f *ir.Func) *DomTree {
	nb := f.NumBlocks()
	rpo := reversePostorder(f)
	// One table holds the reverse-postorder numbers while the tree is
	// computed, then the children's group bounds (one entry more), and
	// the pre/post numbering for good.
	tab := make([]int, 3*nb+1)
	rpoNum := tab[:nb]
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range rpo {
		rpoNum[b.ID] = i
	}

	idom := make([]*ir.Block, nb)
	entry := f.Entry()
	idom[entry.ID] = entry // sentinel: entry "dominated by itself" during iteration

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for rpoNum[a.ID] > rpoNum[b.ID] {
				a = idom[a.ID]
			}
			for rpoNum[b.ID] > rpoNum[a.ID] {
				b = idom[b.ID]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, pid := range b.Preds() {
				p := f.Block(pid)
				if rpoNum[pid] < 0 || idom[pid] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b.ID] != newIdom {
				idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	idom[entry.ID] = nil

	t := &DomTree{fn: f, Idom: idom, pre: tab[nb+1 : 2*nb+1], post: tab[2*nb+1:]}
	t.Children = children(rpo, idom, tab[:nb+1])

	// Pre/post numbering of the dominator tree for O(1) Dominates.
	for i := range t.pre {
		t.pre[i] = -1
	}
	t.number(entry, 0)
	return t
}

// children lays out the dominator-tree children of every block, grouped
// by parent, in one array: it counts each block p's children into
// pos[p+1]; after the prefix sum pos[p] is where p's group starts, and
// storing the children in reverse postorder advances pos[p] to where the
// group ends, which is where block p+1's starts.
func children(rpo, idom []*ir.Block, pos []int) [][]*ir.Block {
	nb := len(idom)
	clear(pos)
	for _, b := range rpo {
		if p := idom[b.ID]; p != nil {
			pos[p.ID+1]++
		}
	}
	for i := 1; i <= nb; i++ {
		pos[i] += pos[i-1]
	}
	kids := make([]*ir.Block, pos[nb])
	for _, b := range rpo {
		if p := idom[b.ID]; p != nil {
			kids[pos[p.ID]] = b
			pos[p.ID]++
		}
	}
	out := make([][]*ir.Block, nb)
	start := 0
	for p, end := range pos[:nb] {
		if end > start {
			out[p] = kids[start:end:end]
			start = end
		}
	}
	return out
}

// number gives b's dominator subtree pre and post numbers from clock on
// and returns the next free number.
func (t *DomTree) number(b *ir.Block, clock int) int {
	t.pre[b.ID] = clock
	clock++
	for _, c := range t.Children[b.ID] {
		clock = t.number(c, clock)
	}
	t.post[b.ID] = clock
	return clock + 1
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if t.pre[a.ID] < 0 || t.pre[b.ID] < 0 {
		return false
	}
	return t.pre[a.ID] <= t.pre[b.ID] && t.post[b.ID] <= t.post[a.ID]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// DominanceFrontiers computes DF(b) for every block using the
// Cooper–Harvey–Kennedy per-join formulation. The inner slices are
// deduplicated and ordered by block ID (the joins are visited in ID
// order), nil for an empty frontier. They are capacity-capped
// sub-slices of one backing array, filled by a counting pass and a
// storing pass over the same walks.
func DominanceFrontiers(f *ir.Func, t *DomTree) [][]*ir.Block {
	nb := f.NumBlocks()
	tab := make([]int32, 2*nb+1)
	pos, mark := tab[:nb+1], tab[nb+1:]
	// Count block r's frontier into pos[r+1]; after the prefix sum pos[r]
	// is where it starts, and the storing pass advances pos[r] to where
	// it ends, which is where block r+1's starts.
	total := frontierPairs(f, t, mark, pos[1:], nil)
	for r := 1; r <= nb; r++ {
		pos[r] += pos[r-1]
	}
	clear(mark)
	out := make([]*ir.Block, total)
	frontierPairs(f, t, mark, pos[:nb], out)
	df := make([][]*ir.Block, nb)
	start := int32(0)
	for r, end := range pos[:nb] {
		if end > start {
			df[r] = out[start:end:end]
			start = end
		}
	}
	return df
}

// frontierPairs walks, for every reachable join block b, each reachable
// predecessor's dominator chain up to idom(b): b is in the frontier of
// every block on the way. mark[r] holds 1 + the ID of the last join
// entered into DF(r), since the walks from one join's predecessors can
// meet. With out nil it counts DF(r) into cnt[r]; otherwise it stores
// the join at out[cnt[r]] and advances cnt[r]. It returns the number of
// (block, join) pairs.
func frontierPairs(f *ir.Func, t *DomTree, mark, cnt []int32, out []*ir.Block) int {
	n := 0
	for id := range t.pre {
		if t.pre[id] < 0 {
			continue
		}
		b := f.Block(ir.BlockID(id))
		if b.NumPreds() < 2 {
			continue
		}
		stamp := int32(id) + 1
		for _, pid := range b.Preds() {
			if t.pre[pid] < 0 {
				continue
			}
			for runner := f.Block(pid); runner != nil && runner != t.Idom[b.ID]; runner = t.Idom[runner.ID] {
				if mark[runner.ID] == stamp {
					continue
				}
				mark[runner.ID] = stamp
				if out != nil {
					out[cnt[runner.ID]] = b
				}
				cnt[runner.ID]++
				n++
			}
		}
	}
	return n
}
