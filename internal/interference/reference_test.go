package interference_test

import (
	"testing"

	"outofssa/internal/bitset"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

// TestInterfereMatchesOverlapReference validates the dominance-based SSA
// interference test (Budimlic et al.) against a brute-force reference:
// two values interfere iff some program point has both live. The only
// allowed divergences are the documented conservative cases — two
// results of one instruction and two φ definitions of one block always
// report interference.
func TestInterfereMatchesOverlapReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		ssa.Build(f)
		live := liveness.Compute(f)
		an := analyze(f, interference.Exact)

		// Collect every "point set": live values after each instruction,
		// at each block entry (including the parallel φ definitions that
		// are born there), and at each block's φ-copy point.
		var points []*bitset.Set
		for _, b := range f.Blocks() {
			entry := live.LiveInSet(b).Copy()
			for _, phi := range b.Phis() {
				// A φ def participates at entry only if its value is used.
				entry.Add(int(phi.Def(0)))
			}
			points = append(points, entry)
			for i, in := range b.Instrs() {
				p := live.LiveAfter(b, i)
				// The write instant: even a dead definition occupies its
				// register while the instruction executes.
				for _, d := range in.Defs() {
					p.Add(int(d.Val))
				}
				points = append(points, p)
			}
			points = append(points, live.ExitLiveSet(b))
		}
		overlap := func(a, b ir.ValueID) bool {
			for _, p := range points {
				if p.Has(int(a)) && p.Has(int(b)) {
					return true
				}
			}
			return false
		}

		defs := ssaDefs(f)
		sameInstr := func(a, b ir.ValueID) bool {
			return defs[a] != nil && defs[a] == defs[b]
		}
		sameBlockPhis := func(a, b ir.ValueID) bool {
			da, db := defs[a], defs[b]
			return da != nil && db != nil && da.Op() == ir.Phi && db.Op() == ir.Phi &&
				da.Block() == db.Block()
		}

		nv := f.NumValues()
		for i := 0; i < nv; i++ {
			for j := i + 1; j < nv; j++ {
				a, b := ir.ValueID(i), ir.ValueID(j)
				if f.IsPhys(a) || f.IsPhys(b) || defs[a] == nil || defs[b] == nil {
					continue
				}
				got := an.Interfere(a, b)
				want := overlap(a, b)
				if got == want {
					continue
				}
				if got && !want && (sameInstr(a, b) || sameBlockPhis(a, b)) {
					continue // documented conservatism
				}
				t.Fatalf("seed %d: Interfere(%v,%v)=%v but overlap=%v\ndef a: %v\ndef b: %v",
					seed, f.VStr(a), f.VStr(b), got, want, defs[a], defs[b])
			}
		}
	}
}

// ssaDefs maps each virtual value of f, which is in SSA form, to its
// one definition.
func ssaDefs(f *ir.Func) []*ir.Instr {
	defs := make([]*ir.Instr, f.NumValues())
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if !f.IsPhys(d.Val) {
					defs[d.Val] = in
				}
			}
		}
	}
	return defs
}
