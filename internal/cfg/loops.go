package cfg

import "outofssa/internal/ir"

// ComputeLoopDepth computes the loop nesting depth of every block and
// stores it in Block.LoopDepth. Loops are identified by back edges
// (edges whose target dominates their source); the natural loop of a back
// edge t->h is h plus every block that reaches t without passing through
// h. Depth is the number of distinct loop headers whose natural loop
// contains the block.
//
// The paper uses depth both for the inner-to-outer traversal of
// Program_pinning and for the 5^depth move weights of Table 5.
func ComputeLoopDepth(f *ir.Func) {
	t := Dominators(f)
	depth := make([]int, f.NumBlocks())

	reach := reachable(f)
	// Collect back edges in deterministic order.
	type backEdge struct{ tail, head *ir.Block }
	var backs []backEdge
	for _, b := range reversePostorder(f) {
		for _, sid := range b.Succs() {
			s := f.Block(sid)
			if t.Dominates(s, b) {
				backs = append(backs, backEdge{b, s})
			}
		}
	}

	// Natural loop of each back edge; a block's depth counts the distinct
	// headers of loops containing it.
	headersOf := make([]map[ir.BlockID]bool, f.NumBlocks())
	for _, be := range backs {
		inLoop := make([]bool, f.NumBlocks())
		inLoop[be.head.ID] = true
		stack := []*ir.Block{}
		if !inLoop[be.tail.ID] {
			inLoop[be.tail.ID] = true
			stack = append(stack, be.tail)
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range b.Preds() {
				if reach[p] && !inLoop[p] {
					inLoop[p] = true
					stack = append(stack, f.Block(p))
				}
			}
		}
		for id, in := range inLoop {
			if !in {
				continue
			}
			if headersOf[id] == nil {
				headersOf[id] = make(map[ir.BlockID]bool)
			}
			headersOf[id][be.head.ID] = true
		}
	}
	for id := range depth {
		depth[id] = len(headersOf[id])
	}
	for _, b := range f.Blocks() {
		b.LoopDepth = depth[b.ID]
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
