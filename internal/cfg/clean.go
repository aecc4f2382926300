package cfg

import "outofssa/internal/ir"

// RemoveUnreachable deletes blocks not reachable from the entry,
// unlinking them from the Preds lists of reachable blocks and dropping φ
// arguments that flowed in from removed predecessors.
func RemoveUnreachable(f *ir.Func) int {
	reach := reachable(f)
	removed := 0
	for _, b := range f.Blocks() {
		if reach[b.ID] {
			continue
		}
		removed++
		for _, sid := range b.Succs() {
			if !reach[sid] {
				continue
			}
			s := f.Block(sid)
			// Drop the φ argument positions corresponding to b.
			for {
				pi := s.PredIndex(b.ID)
				if pi < 0 {
					break
				}
				s.RemovePredAt(pi)
				for _, phi := range s.Phis() {
					phi.RemoveUseAt(pi)
				}
			}
		}
	}
	if removed > 0 {
		kept := make([]ir.BlockID, 0, len(f.Blocks())-removed)
		for _, b := range f.Blocks() {
			if reach[b.ID] {
				kept = append(kept, b.ID)
			}
		}
		f.SetBlockOrder(kept)
	}
	return removed
}
