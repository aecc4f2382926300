// Package naive implements the classic out-of-SSA translation of Cytron
// et al. as repaired by Briggs et al.: each φ is replaced by one copy per
// predecessor, with the copies of one edge grouped into a parallel copy
// (avoiding the swap problem) and critical edges split (avoiding the
// lost-copy problem). No coalescing is attempted: every φ operand slot
// costs a move; the paper's Table 4 "φ moves" column measures exactly
// this naive cost.
package naive

import (
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/parcopy"
)

// Stats describes the translation.
type Stats struct {
	// PhiMoves is the number of φ operand slots turned into copies.
	PhiMoves int
	// EdgesSplit is the number of critical edges split.
	EdgesSplit int
}

// AppendCounters appends the statistics to dst as trace counters, in
// field order.
func (s *Stats) AppendCounters(dst []obs.Counter) []obs.Counter {
	return append(dst,
		obs.Counter{Name: "PhiMoves", Value: int64(s.PhiMoves)},
		obs.Counter{Name: "EdgesSplit", Value: int64(s.EdgesSplit)})
}

// Translate replaces every φ of f with copies in the predecessor blocks.
// Pins are ignored (and cleared): use NaiveABI afterwards to satisfy
// renaming constraints with local moves. The input must be in SSA form.
func Translate(f *ir.Func) (*Stats, error) {
	st := &Stats{EdgesSplit: cfg.SplitCriticalEdges(f)}

	for _, b := range f.Blocks() {
		nphis := b.NumPhis()
		if nphis == 0 {
			continue
		}
		var phis []*ir.Instr
		for _, phi := range b.Phis() {
			phis = append(phis, phi)
		}
		for pi := 0; pi < b.NumPreds(); pi++ {
			pred := b.Pred(pi)
			var defs, uses []ir.Operand
			for _, phi := range phis {
				dst, src := phi.Def(0), phi.Use(pi)
				if dst == src {
					continue
				}
				defs = append(defs, ir.Operand{Val: dst})
				uses = append(uses, ir.Operand{Val: src})
			}
			if len(defs) > 0 {
				st.PhiMoves += len(defs)
				pred.InsertBeforeTerminator(f.NewInstr(ir.ParCopy, defs, uses))
			}
		}
		for k := 0; k < nphis; k++ {
			b.RemoveAt(0)
		}
	}

	// The naive translation leaves the pins unenforced; drop them so the
	// result is plain non-SSA code.
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumDefs(); i++ {
				in.SetDef(i, ir.Operand{Val: in.Def(i)})
			}
			for i := 0; i < in.NumUses(); i++ {
				in.SetUse(i, ir.Operand{Val: in.Use(i)})
			}
		}
	}

	parcopy.Sequentialize(f)
	return st, nil
}
