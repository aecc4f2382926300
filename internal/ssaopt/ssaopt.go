// Package ssaopt provides the SSA optimizations the paper's toolchain
// (the LAO) runs before the out-of-SSA translation: copy propagation,
// constant folding, local value numbering and dead-code elimination.
// They matter to the evaluation for two reasons: they create the
// coalescing opportunities (value numbering merges copies into φ webs)
// and they must be careful around dedicated registers (paper §2.2 —
// propagating through an SP-pinned web produces incorrect pinned code,
// Fig. 2).
package ssaopt

import (
	"strconv"

	"outofssa/internal/bitset"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/ssa"
)

// Stats summarizes an optimization run.
type Stats struct {
	CopiesPropagated int
	ConstantsFolded  int
	CSEHits          int
	DeadRemoved      int
	Rounds           int
}

// AppendCounters appends the statistics to dst as trace counters, in
// field order.
func (s *Stats) AppendCounters(dst []obs.Counter) []obs.Counter {
	return append(dst,
		obs.Counter{Name: "CopiesPropagated", Value: int64(s.CopiesPropagated)},
		obs.Counter{Name: "ConstantsFolded", Value: int64(s.ConstantsFolded)},
		obs.Counter{Name: "CSEHits", Value: int64(s.CSEHits)},
		obs.Counter{Name: "DeadRemoved", Value: int64(s.DeadRemoved)},
		obs.Counter{Name: "Rounds", Value: int64(s.Rounds)})
}

// Optimize runs the pass bundle to a fixed point on SSA form. info is
// used to avoid touching webs of dedicated registers.
func Optimize(f *ir.Func, info *ssa.Info) *Stats {
	st := &Stats{}
	for {
		st.Rounds++
		n := copyPropagate(f, info)
		st.CopiesPropagated += n
		c := constFold(f)
		c += FoldSelects(f)
		st.ConstantsFolded += c
		v := localCSE(f, info)
		st.CSEHits += v
		d := EliminateDeadCode(f)
		st.DeadRemoved += d
		if n+c+v+d == 0 {
			return st
		}
	}
}

// protected reports whether v belongs to a dedicated-register web or is
// itself physical: such values are never propagated or merged, per the
// paper's correctness discussion (§2.2).
func protected(f *ir.Func, v ir.ValueID, info *ssa.Info) bool {
	if f.IsPhys(v) {
		return true
	}
	return info != nil && info.OrigPhys(v) != ir.NoValue
}

// copyPropagate replaces uses of b with a for every copy b = a, when
// neither side is pinned or protected. The copies themselves become dead
// and are collected by EliminateDeadCode. Returns the number of copies
// propagated.
func copyPropagate(f *ir.Func, info *ssa.Info) int {
	repl := make(map[ir.ValueID]ir.ValueID)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() != ir.Copy {
				continue
			}
			d, s := in.Def(0), in.Use(0)
			if in.DefOp(0).Pinned() || in.UseOp(0).Pinned() {
				continue
			}
			if protected(f, d, info) || protected(f, s, info) {
				continue
			}
			repl[d] = s
		}
	}
	if len(repl) == 0 {
		return 0
	}
	resolve := func(v ir.ValueID) ir.ValueID {
		seen := 0
		for {
			w, ok := repl[v]
			if !ok {
				return v
			}
			v = w
			if seen++; seen > len(repl) {
				return v // defensive: cycles cannot occur in SSA copies
			}
		}
	}
	n := 0
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumUses(); i++ {
				if w := resolve(in.Use(i)); w != in.Use(i) {
					in.SetUseVal(i, w)
					n++
				}
			}
		}
	}
	return n
}

// constFold evaluates arithmetic over constant operands, rewriting the
// instruction into a Const. Returns the number of folds.
func constFold(f *ir.Func) int {
	constOf := make(map[ir.ValueID]int64)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.Const {
				constOf[in.Def(0)] = in.Imm
			}
		}
	}
	n := 0
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.NumDefs() != 1 || in.DefOp(0).Pinned() {
				continue
			}
			v, ok := foldable(in, constOf)
			if !ok {
				continue
			}
			in.SetOp(ir.Const)
			in.SetOperands([]ir.Operand{in.DefOp(0)}, nil)
			in.Imm = v
			constOf[in.Def(0)] = v
			n++
		}
	}
	return n
}

func foldable(in *ir.Instr, constOf map[ir.ValueID]int64) (int64, bool) {
	arg := func(i int) (int64, bool) {
		if in.UseOp(i).Pinned() {
			return 0, false
		}
		v, ok := constOf[in.Use(i)]
		return v, ok
	}
	bin := func(fn func(a, b int64) int64) (int64, bool) {
		a, ok := arg(0)
		if !ok {
			return 0, false
		}
		b, ok := arg(1)
		if !ok {
			return 0, false
		}
		return fn(a, b), true
	}
	switch in.Op() {
	case ir.Add:
		return bin(func(a, b int64) int64 { return a + b })
	case ir.Sub:
		return bin(func(a, b int64) int64 { return a - b })
	case ir.Mul:
		return bin(func(a, b int64) int64 { return a * b })
	case ir.And:
		return bin(func(a, b int64) int64 { return a & b })
	case ir.Or:
		return bin(func(a, b int64) int64 { return a | b })
	case ir.Xor:
		return bin(func(a, b int64) int64 { return a ^ b })
	case ir.CmpLT:
		return bin(func(a, b int64) int64 {
			if a < b {
				return 1
			}
			return 0
		})
	case ir.Neg:
		a, ok := arg(0)
		if !ok {
			return 0, false
		}
		return -a, true
	}
	return 0, false
}

// FoldSelects rewrites select instructions whose condition is a known
// constant into copies (the ψ-conventional lowering seeds its chains
// with constant-true predicates). Returns the number of folds.
func FoldSelects(f *ir.Func) int {
	constOf := make(map[ir.ValueID]int64)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.Const {
				constOf[in.Def(0)] = in.Imm
			}
		}
	}
	n := 0
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() != ir.Select || in.DefOp(0).Pinned() {
				continue
			}
			if in.UseOp(0).Pinned() || in.UseOp(1).Pinned() || in.UseOp(2).Pinned() {
				continue
			}
			c, ok := constOf[in.Use(0)]
			if !ok {
				continue
			}
			src := in.UseOp(1)
			if c == 0 {
				src = in.UseOp(2)
			}
			in.SetOp(ir.Copy)
			in.SetOperands([]ir.Operand{in.DefOp(0)}, []ir.Operand{src})
			n++
		}
	}
	return n
}

// localCSE performs local value numbering within each block: a pure
// instruction computing an expression already computed in the block is
// replaced by a copy of the earlier result (which copy propagation then
// dissolves). Returns the number of replacements.
func localCSE(f *ir.Func, info *ssa.Info) int {
	n := 0
	var buf [64]byte
	for _, b := range f.Blocks() {
		avail := make(map[string]ir.ValueID)
		for _, in := range b.Instrs() {
			if !pureOp(in.Op()) || in.NumDefs() != 1 {
				continue
			}
			if in.DefOp(0).Pinned() || protected(f, in.Def(0), info) {
				continue
			}
			pinned := false
			for _, u := range in.Uses() {
				if u.Pinned() {
					pinned = true
				}
			}
			if pinned {
				continue
			}
			key := exprKey(buf[:0], in)
			if prev, ok := avail[string(key)]; ok {
				in.SetOp(ir.Copy)
				in.SetOperands([]ir.Operand{in.DefOp(0)}, []ir.Operand{{Val: prev}})
				in.Imm = 0
				n++
				continue
			}
			avail[string(key)] = in.Def(0)
		}
	}
	return n
}

func pureOp(op ir.Op) bool {
	switch op {
	case ir.Const, ir.Make, ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem,
		ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Neg, ir.Not,
		ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE,
		ir.Min, ir.Max, ir.Select:
		return true
	}
	return false
}

// exprKey appends in's expression key to buf: opcode, immediate and
// use value IDs in decimal, colon-separated ("op:imm:u0:u1...").
func exprKey(buf []byte, in *ir.Instr) []byte {
	buf = strconv.AppendInt(buf, int64(in.Op()), 10)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, in.Imm, 10)
	for _, u := range in.Uses() {
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(u.Val), 10)
	}
	return buf
}

// EliminateDeadCode removes pure instructions whose results are unused
// (including φs), iterating until stable. Returns the number of removed
// instructions.
func EliminateDeadCode(f *ir.Func) int {
	removed := 0
	used := bitset.New(f.NumValues())
	for {
		used.Clear()
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				for _, u := range in.Uses() {
					used.Add(int(u.Val))
				}
			}
		}
		n := 0
		for _, b := range f.Blocks() {
			for idx := 0; idx < b.NumInstrs(); idx++ {
				in := b.Instr(idx)
				if !removable(in) {
					continue
				}
				live := false
				for _, d := range in.Defs() {
					if used.Has(int(d.Val)) || d.Pinned() {
						live = true
						break
					}
				}
				if live {
					continue
				}
				b.RemoveAt(idx)
				idx--
				n++
			}
		}
		removed += n
		if n == 0 {
			return removed
		}
	}
}

func removable(in *ir.Instr) bool {
	if in.Op() == ir.Phi || in.Op() == ir.Copy {
		return true
	}
	return pureOp(in.Op())
}
