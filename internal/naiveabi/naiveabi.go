// Package naiveabi satisfies ABI and ISA renaming constraints on non-SSA
// machine code by inserting move instructions locally around each
// constrained instruction (the paper's NaiveABI pass). It is the
// baseline used when the pinningABI collect phase is disabled: every
// constraint costs its full move price up front, and a later aggressive
// coalescing pass recovers only what Chaitin-style coalescing can.
package naiveabi

import (
	"outofssa/internal/ir"
	"outofssa/internal/obs"
)

// Stats describes the insertion.
type Stats struct {
	// Moves is the number of move instructions inserted.
	Moves int
}

// AppendCounters appends the statistics to dst as trace counters.
func (s *Stats) AppendCounters(dst []obs.Counter) []obs.Counter {
	return append(dst, obs.Counter{Name: "Moves", Value: int64(s.Moves)})
}

// Apply rewrites f in place:
//
//   - .input: parameters are received in the argument registers and
//     immediately moved into their variables;
//   - .output: results are moved into the return registers;
//   - call: arguments are moved into the argument registers before the
//     call, results out of the return registers after it;
//   - 2-operand instructions: the tied source is moved into the
//     destination first.
//
// Operands already equal to the required register cost nothing.
func Apply(f *ir.Func) *Stats {
	st := &Stats{}
	t := f.Target

	mov := func(d, s ir.ValueID) *ir.Instr {
		st.Moves++
		return f.NewInstr(ir.Copy,
			[]ir.Operand{{Val: d}}, []ir.Operand{{Val: s}})
	}

	for _, b := range f.Blocks() {
		for idx := 0; idx < b.NumInstrs(); idx++ {
			in := b.Instr(idx)
			switch {
			case in.Op() == ir.Input:
				n := int(in.Imm)
				post := 0
				for i := 0; i < n && i < len(t.ArgRegs) && i < in.NumDefs(); i++ {
					v := in.Def(i)
					r := t.ArgRegs[i]
					if v == r {
						continue
					}
					in.SetDefVal(i, r)
					b.InsertAt(idx+1+post, mov(v, r))
					post++
				}
				idx += post

			case in.Op() == ir.Output:
				for i := 0; i < in.NumUses(); i++ {
					if i >= len(t.RetRegs) {
						break
					}
					v := in.Use(i)
					r := t.RetRegs[i]
					if v == r {
						continue
					}
					in.SetUseVal(i, r)
					b.InsertAt(idx, mov(r, v))
					idx++
				}

			case in.Op() == ir.Call:
				for i := 0; i < in.NumUses(); i++ {
					if i >= len(t.ArgRegs) {
						break
					}
					v := in.Use(i)
					r := t.ArgRegs[i]
					if v == r {
						continue
					}
					in.SetUseVal(i, r)
					b.InsertAt(idx, mov(r, v))
					idx++
				}
				post := 0
				for i := 0; i < in.NumDefs(); i++ {
					if i >= len(t.RetRegs) {
						break
					}
					v := in.Def(i)
					r := t.RetRegs[i]
					if v == r {
						continue
					}
					in.SetDefVal(i, r)
					b.InsertAt(idx+1+post, mov(v, r))
					post++
				}
				idx += post

			case in.Op().IsTwoOperand():
				d := in.Def(0)
				s := in.Use(0)
				if d != s {
					// Other operands still reading d's previous value must
					// be rescued before d is overwritten by the tie move.
					tmp := ir.NoValue
					for i := 1; i < in.NumUses(); i++ {
						if in.Use(i) != d {
							continue
						}
						if tmp == ir.NoValue {
							tmp = f.NewValue("")
							b.InsertAt(idx, mov(tmp, d))
							idx++
						}
						in.SetUseVal(i, tmp)
					}
					b.InsertAt(idx, mov(d, s))
					in.SetUseVal(0, d)
					idx++
				}
			}
		}
	}
	return st
}
