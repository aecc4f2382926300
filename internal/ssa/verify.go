package ssa

import (
	"fmt"

	"outofssa/internal/analysis"
	"outofssa/internal/ir"
)

// Verify checks that f is structurally well formed (ir.Func.Verify) and
// in SSA form (VerifyForm).
func Verify(f *ir.Func) error {
	if err := f.Verify(); err != nil {
		return err
	}
	return VerifyForm(f)
}

// VerifyForm checks SSA invariants on f, which must already have passed
// ir.Func.Verify:
//   - every virtual value has at most one definition;
//   - every use is dominated by its definition (φ uses are checked
//     against the end of the corresponding predecessor block);
//   - no physical register appears as an operand value (dedicated
//     registers must have been renamed; they may appear as pins).
func VerifyForm(f *ir.Func) error {
	dom := analysis.Dominators(f)

	defAt := make([]*ir.Instr, f.NumValues())
	defIdx := make([]int, f.NumValues())
	for _, b := range f.Blocks() {
		for idx, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if f.IsPhys(d.Val) {
					return fmt.Errorf("%s: physical register %v defined by %q in SSA form", f.Name, f.VStr(d.Val), in)
				}
				if defAt[d.Val] != nil {
					return fmt.Errorf("%s: %v has two definitions: %q and %q", f.Name, f.VStr(d.Val), defAt[d.Val], in)
				}
				defAt[d.Val] = in
				defIdx[d.Val] = idx
			}
		}
	}

	// A def at (bd, i) is available at use (bu, j) iff bd strictly
	// dominates bu, or same block with i < j (φ defs at the top count as
	// preceding everything).
	avail := func(v ir.ValueID, b *ir.Block, idx int) bool {
		def := defAt[v]
		if def == nil {
			return false
		}
		db := def.Block()
		if db == b {
			return defIdx[v] < idx || def.Op() == ir.Phi
		}
		return dom.StrictlyDominates(db, b)
	}

	for _, b := range f.Blocks() {
		for idx, in := range b.Instrs() {
			if in.Op() == ir.Phi {
				for pi, u := range in.Uses() {
					if f.IsPhys(u.Val) {
						return fmt.Errorf("%s: physical register %v used by φ %q", f.Name, f.VStr(u.Val), in)
					}
					pred := b.Pred(pi)
					// The φ use happens at the end of pred: def must
					// dominate pred (reflexively).
					def := defAt[u.Val]
					if def == nil {
						return fmt.Errorf("%s: φ %q uses undefined %v", f.Name, in, f.VStr(u.Val))
					}
					if !dom.Dominates(def.Block(), pred) {
						return fmt.Errorf("%s: φ arg %v (from %v) not dominated by its def in %v",
							f.Name, f.VStr(u.Val), pred, def.Block())
					}
				}
				continue
			}
			for _, u := range in.Uses() {
				if f.IsPhys(u.Val) {
					return fmt.Errorf("%s: physical register %v used by %q in SSA form", f.Name, f.VStr(u.Val), in)
				}
				if !avail(u.Val, b, idx) {
					return fmt.Errorf("%s: use of %v in %q (block %v) not dominated by its definition",
						f.Name, f.VStr(u.Val), in, b)
				}
			}
		}
	}
	return nil
}
