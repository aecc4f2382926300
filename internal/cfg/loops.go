package cfg

import "outofssa/internal/ir"

// ComputeLoopDepth computes the loop nesting depth of every block and
// stores it in Block.LoopDepth: SetLoopDepth over a freshly computed
// dominator tree. Passes that hold a memoized tree call SetLoopDepth.
func ComputeLoopDepth(f *ir.Func) { SetLoopDepth(f, Dominators(f)) }

// SetLoopDepth computes the loop nesting depth of every block from t,
// the current dominator tree of f, and stores it in Block.LoopDepth.
// Loops are identified by back edges (edges whose target dominates
// their source); the natural loop of a back edge t->h is h plus every
// block that reaches t without passing through h. Depth is the number
// of distinct loop headers whose natural loop contains the block.
//
// The paper uses depth both for the inner-to-outer traversal of
// Program_pinning and for the 5^depth move weights of Table 5.
func SetLoopDepth(f *ir.Func, t *DomTree) {
	// seen[id] is one more than the ID of the last header whose loop
	// reached block id, so each header's back edges share one marking
	// and a block counts each header once.
	seen := make([]int32, f.NumBlocks())
	depth := make([]int32, f.NumBlocks())
	var stack []ir.BlockID
	for _, h := range f.Blocks() {
		mark := int32(h.ID) + 1
		for _, tail := range h.Preds() {
			if !t.Dominates(h, f.Block(tail)) {
				continue // not a back edge (or an unreachable tail)
			}
			if seen[h.ID] != mark {
				seen[h.ID] = mark
				depth[h.ID]++
			}
			stack = append(stack[:0], tail)
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[b] == mark {
					continue
				}
				seen[b] = mark
				depth[b]++
				for _, p := range f.Block(b).Preds() {
					if seen[p] != mark && t.pre[p] >= 0 {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, b := range f.Blocks() {
		b.LoopDepth = int(depth[b.ID])
	}
}

// SplitCriticalEdges inserts an empty block on every critical edge (an
// edge from a block with multiple successors to a block with multiple
// predecessors). φ argument positions are preserved. The out-of-SSA
// translators place φ-related copies at the end of predecessors; without
// critical-edge splitting such a copy would execute on paths that bypass
// the φ, which is exactly the situation that makes the naive Cytron
// translation incorrect (lost-copy problem).
//
// Returns the number of edges split. Loop depths of the new blocks are
// inherited from the deeper endpoint only if ComputeLoopDepth already
// ran; callers normally re-run it afterwards.
func SplitCriticalEdges(f *ir.Func) int {
	n := 0
	// Snapshot: we mutate the block list while iterating.
	blocks := append([]*ir.Block(nil), f.Blocks()...)
	for _, b := range blocks {
		if b.NumSuccs() < 2 {
			continue
		}
		for si := 0; si < b.NumSuccs(); si++ {
			s := b.Succ(si)
			if s.NumPreds() < 2 {
				continue
			}
			mid := f.NewBlock("")
			mid.Append(f.NewInstr(ir.Jump, nil, nil))
			// Rewire b -> mid -> s, preserving positions.
			ss := append([]ir.BlockID(nil), b.Succs()...)
			ss[si] = mid.ID
			b.SetSuccs(ss)
			mid.SetPreds([]ir.BlockID{b.ID})
			mid.SetSuccs([]ir.BlockID{s.ID})
			s.ReplacePred(b.ID, mid.ID)
			// φ uses in s keep their index, so nothing else to update.
			n++
		}
	}
	return n
}
