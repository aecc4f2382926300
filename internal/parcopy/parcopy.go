// Package parcopy sequentializes parallel copies. Replacing φ
// instructions produces parallel copies at predecessor block ends (all
// sources read before any destination is written); hardware has only
// sequential moves, so cycles — the classic swap problem — must be broken
// with a temporary (Briggs et al.).
package parcopy

import (
	"fmt"

	"outofssa/internal/ir"
)

// Check validates one parallel copy: def/use slots must pair up and the
// destinations must be pairwise distinct — a duplicated destination
// makes the parallel write nondeterministic (two sources race for one
// slot), which no correct φ replacement ever produces. The checked
// pipeline's verifier calls this on every ParCopy it encounters.
func Check(pc *ir.Instr) error {
	if pc.Op() != ir.ParCopy {
		return fmt.Errorf("parcopy: %q is not a parallel copy", pc)
	}
	if pc.NumDefs() != pc.NumUses() {
		return fmt.Errorf("parcopy: %q has %d destinations for %d sources",
			pc, pc.NumDefs(), pc.NumUses())
	}
	seen := make(map[ir.ValueID]bool, pc.NumDefs())
	for _, d := range pc.Defs() {
		if d.Val == ir.NoValue {
			return fmt.Errorf("parcopy: missing destination in %q", pc)
		}
		if seen[d.Val] {
			return fmt.Errorf("parcopy: destination %v duplicated in %q", pc.Func().VStr(d.Val), pc)
		}
		seen[d.Val] = true
	}
	return nil
}

// Sequentialize lowers every ParCopy instruction of f into an equivalent
// sequence of Copy instructions, allocating at most one temporary per
// copy cycle. Self copies are dropped. Returns the number of Copy
// instructions emitted.
func Sequentialize(f *ir.Func) int {
	emitted := 0
	for _, b := range f.Blocks() {
		for idx := 0; idx < b.NumInstrs(); idx++ {
			in := b.Instr(idx)
			if in.Op() != ir.ParCopy {
				continue
			}
			seq := lower(f, in)
			b.RemoveAt(idx)
			for k, c := range seq {
				b.InsertAt(idx+k, c)
			}
			idx += len(seq) - 1
			emitted += len(seq)
		}
	}
	return emitted
}

// lower returns the sequential Copy list equivalent to the parallel copy
// pc. The algorithm repeatedly emits copies whose destination is not a
// pending source; when none exists every pending destination is also a
// source — a cycle — which is broken by saving one destination to a fresh
// temporary.
func lower(f *ir.Func, pc *ir.Instr) []*ir.Instr {
	type cp struct{ dst, src ir.ValueID }
	var pending []cp
	for i := 0; i < pc.NumDefs(); i++ {
		d, s := pc.Def(i), pc.Use(i)
		if d != s {
			pending = append(pending, cp{d, s})
		}
	}
	var out []*ir.Instr
	emit := func(d, s ir.ValueID) {
		out = append(out, f.NewInstr(ir.Copy,
			[]ir.Operand{{Val: d}}, []ir.Operand{{Val: s}}))
	}
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); {
			d := pending[i].dst
			isSrc := false
			for j, p := range pending {
				if j != i && p.src == d {
					isSrc = true
					break
				}
			}
			if isSrc {
				i++
				continue
			}
			emit(d, pending[i].src)
			pending = append(pending[:i], pending[i+1:]...)
			progress = true
		}
		if !progress && len(pending) > 0 {
			// Pure cycle(s): break one by parking a destination in a temp.
			tmp := f.NewValue("")
			broken := pending[0]
			emit(tmp, broken.dst)
			for j := range pending {
				if pending[j].src == broken.dst {
					pending[j].src = tmp
				}
			}
		}
	}
	return out
}
