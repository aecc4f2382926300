// Package psi implements the ψ-SSA support the paper's toolchain uses
// for predicated code (§5, after Stoutchinin and de Ferrière, "Efficient
// static single assignment form for predication", MICRO 2001):
//
//   - IfConvert turns small branch diamonds/triangles into straight-line
//     predicated code, merging values with ψ instructions instead of φs;
//   - ConvertPsi rewrites each ψ into a chain of predicated selects whose
//     running operand is tied to the destination — "ψ instructions
//     introduce constraints similar to 2-operands constraints, and are
//     handled in our algorithm in a special pass where they are converted
//     into a 'ψ-conventional' SSA form" (paper §5).
//
// After ConvertPsi the function is ordinary pinned SSA; the pinning-based
// coalescer then merges each chain into a single resource whenever no
// interference forbids it, exactly as it does for 2-operand ties.
package psi

import (
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
)

// Stats describes what the passes did.
type Stats struct {
	// DiamondsConverted counts if-converted two-arm regions,
	// TrianglesConverted one-arm regions.
	DiamondsConverted  int
	TrianglesConverted int
	// InstrsSpeculated is the number of instructions hoisted into the
	// predecessor (executed under both predicates).
	InstrsSpeculated int
	// PsisLowered counts ψ instructions rewritten to select chains;
	// TiesPinned the 2-operand-like pins applied.
	PsisLowered int
	TiesPinned  int
}

// AppendCounters appends the statistics to dst as trace counters, in
// field order.
func (s *Stats) AppendCounters(dst []obs.Counter) []obs.Counter {
	return append(dst,
		obs.Counter{Name: "DiamondsConverted", Value: int64(s.DiamondsConverted)},
		obs.Counter{Name: "TrianglesConverted", Value: int64(s.TrianglesConverted)},
		obs.Counter{Name: "InstrsSpeculated", Value: int64(s.InstrsSpeculated)},
		obs.Counter{Name: "PsisLowered", Value: int64(s.PsisLowered)},
		obs.Counter{Name: "TiesPinned", Value: int64(s.TiesPinned)})
}

// MaxArmInstrs bounds the size of an arm eligible for if-conversion.
const MaxArmInstrs = 6

// IfConvert performs if-conversion on SSA form f: branch diamonds and
// triangles whose arms are short and side-effect free become predicated
// straight-line code, with ψ instructions merging the values. Runs to a
// fixed point (inner regions collapse first, enabling outer ones).
func IfConvert(f *ir.Func) *Stats {
	st := &Stats{}
	for ifConvertOne(f, st) {
	}
	return st
}

// speculable reports whether an instruction may be executed under a
// false predicate (pure, no memory or control effects).
func speculable(in *ir.Instr) bool {
	switch in.Op() {
	case ir.Copy, ir.Const, ir.Make, ir.Add, ir.Sub, ir.Mul,
		ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Neg, ir.Not,
		ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
		ir.Min, ir.Max, ir.Select, ir.Psi:
		return true
	}
	// Div/Rem excluded: a speculated division changes trap behaviour on
	// real hardware (the interpreter is total, but the substitution aims
	// to preserve the realistic constraint).
	return false
}

// armOK checks that blk is a single-pred arm of head consisting only of
// speculable instructions plus a trailing jump to join.
func armOK(head, blk, join *ir.Block) bool {
	if blk.NumPreds() != 1 || blk.Pred(0) != head {
		return false
	}
	if blk.NumSuccs() != 1 || blk.Succ(0) != join {
		return false
	}
	if blk.NumInstrs() > MaxArmInstrs+1 {
		return false
	}
	for _, in := range blk.Instrs() {
		if in.Op() == ir.Jump {
			continue
		}
		if !speculable(in) {
			return false
		}
	}
	return true
}

func ifConvertOne(f *ir.Func, st *Stats) bool {
	for _, head := range f.Blocks() {
		term := head.Terminator()
		if term == nil || term.Op() != ir.Br {
			continue
		}
		taken, fall := head.Succ(0), head.Succ(1)
		cond := term.Use(0)

		// Diamond: head -> taken/fall -> join.
		if taken != fall && taken.NumSuccs() == 1 && fall.NumSuccs() == 1 &&
			taken.Succs()[0] == fall.Succs()[0] {
			join := taken.Succ(0)
			if join != head && join.NumPreds() == 2 &&
				armOK(head, taken, join) && armOK(head, fall, join) {
				convertDiamond(f, head, taken, fall, join, cond, st)
				return true
			}
		}

		// Triangle: head -> arm -> join, head -> join.
		for _, arm := range []struct {
			arm, join *ir.Block
			negate    bool
		}{{taken, fall, false}, {fall, taken, true}} {
			a, join := arm.arm, arm.join
			if a == join || join == head {
				continue
			}
			if a.NumSuccs() == 1 && a.Succ(0) == join && join.NumPreds() == 2 &&
				join.PredIndex(head.ID) >= 0 && armOK(head, a, join) {
				convertTriangle(f, head, a, join, cond, arm.negate, st)
				return true
			}
		}
	}
	return false
}

// hoist moves every non-terminator instruction of arm to the end of
// head (before its terminator).
func hoist(head, arm *ir.Block, st *Stats) {
	moved := append([]ir.InstrID(nil), arm.InstrIDs()...)
	arm.Truncate(0)
	f := arm.Func()
	for _, id := range moved {
		in := f.Instr(id)
		if in.Op() == ir.Jump {
			continue
		}
		head.InsertBeforeTerminator(in)
		st.InstrsSpeculated++
	}
	arm.Append(f.NewInstr(ir.Jump, nil, nil))
}

// replacePhisWithPsis rewrites the φs of join (which currently merge
// predIdxA/predIdxB) into ψ instructions predicated on cond.
func replacePhisWithPsis(f *ir.Func, join *ir.Block, idxIfTrue, idxIfFalse int, cond ir.ValueID) {
	one := f.NewValue("")
	needOne := false
	var phis []*ir.Instr
	for _, phi := range join.Phis() {
		phis = append(phis, phi)
	}
	for _, phi := range phis {
		vTrue := phi.Use(idxIfTrue)
		vFalse := phi.Use(idxIfFalse)
		// ψ semantics: the last pair whose predicate holds wins. The
		// unconditional (false-path) value goes first under predicate 1.
		phi.SetOp(ir.Psi)
		phi.SetOperands(
			[]ir.Operand{{Val: phi.Def(0)}},
			[]ir.Operand{
				{Val: one}, {Val: vFalse},
				{Val: cond}, {Val: vTrue},
			})
		needOne = true
	}
	if needOne {
		c := f.NewInstr(ir.Const, []ir.Operand{{Val: one}}, nil)
		c.Imm = 1
		join.InsertAt(0, c)
	}
}

func convertDiamond(f *ir.Func, head, taken, fall, join *ir.Block, cond ir.ValueID, st *Stats) {
	st.DiamondsConverted++
	hoist(head, taken, st)
	hoist(head, fall, st)
	idxT := join.PredIndex(taken.ID)
	idxF := join.PredIndex(fall.ID)
	replacePhisWithPsis(f, join, idxT, idxF, cond)

	// Rewire: head jumps straight to join; the arms become unreachable.
	rewireStraight(f, head, join, idxT, idxF)
	cfg.RemoveUnreachable(f)
}

func convertTriangle(f *ir.Func, head, arm, join *ir.Block, cond ir.ValueID, negate bool, st *Stats) {
	st.TrianglesConverted++
	hoist(head, arm, st)
	idxArm := join.PredIndex(arm.ID)
	idxHead := join.PredIndex(head.ID)
	if negate {
		// Arm runs when cond is false: ψ pairs become (1, armVal),
		// (cond, headVal) — i.e. the head value wins when cond holds.
		replacePhisWithPsis(f, join, idxHead, idxArm, cond)
	} else {
		replacePhisWithPsis(f, join, idxArm, idxHead, cond)
	}
	rewireStraight(f, head, join, idxArm, idxHead)
	cfg.RemoveUnreachable(f)
}

// rewireStraight replaces head's terminator with a jump to join and
// collapses join's two predecessor slots (idxA kept as the slot for
// head; the ψs no longer use per-edge arguments).
func rewireStraight(f *ir.Func, head, join *ir.Block, idxA, idxB int) {
	head.RemoveAt(head.NumInstrs() - 1) // the Br
	head.SetSuccs(nil)
	head.Append(f.NewInstr(ir.Jump, nil, nil))

	// Remove both old pred slots of join, then connect head -> join.
	hi, lo := idxA, idxB
	if hi < lo {
		hi, lo = lo, hi
	}
	join.RemovePredAt(hi)
	join.RemovePredAt(lo)
	f.AddEdge(head, join)
}

// ConvertPsi rewrites every ψ into ψ-conventional form: a chain of
// predicated selects where each step's running value is tied to the
// step's destination (the 2-operand-like renaming constraint), ending in
// the ψ's original destination.
func ConvertPsi(f *ir.Func) *Stats {
	st := &Stats{}
	for _, b := range f.Blocks() {
		for idx := 0; idx < b.NumInstrs(); idx++ {
			in := b.Instr(idx)
			if in.Op() != ir.Psi {
				continue
			}
			st.PsisLowered++
			d := in.Def(0)
			pairs := append([]ir.Operand(nil), in.Uses()...)
			// Seed: zero, like the interpreter's ψ default.
			zero := f.NewValue("")
			b.InsertAt(idx, f.NewInstr(ir.Const, []ir.Operand{{Val: zero}}, nil))
			idx++
			cur := zero
			for p := 0; p+1 < len(pairs); p += 2 {
				last := p+3 >= len(pairs)
				var dst ir.ValueID
				if last {
					dst = d
				} else {
					dst = f.NewValue(f.ValueName(d) + ".psi")
				}
				sel := f.NewInstr(ir.Select,
					[]ir.Operand{{Val: dst}},
					[]ir.Operand{pairs[p], pairs[p+1], {Val: cur}})
				// The running operand is tied to the destination: a
				// predicated machine move modifies its target in place.
				if cur != zero {
					sel.SetUsePin(2, dst)
					st.TiesPinned++
				}
				b.InsertAt(idx, sel)
				idx++
				cur = dst
			}
			// Drop the ψ itself.
			b.RemoveAt(idx)
			idx--
		}
	}
	return st
}
