package pin

import (
	"fmt"

	"outofssa/internal/ir"
	"outofssa/internal/ssa"
)

// CollectSP pins every SSA value renamed from a dedicated register back
// to that register (the paper's pinningSP phase, run unconditionally:
// "it was not possible to ignore those renaming constraints during the
// out-of-SSA phase and to treat them afterwards").
//
// Only the definitions are pinned; φ webs over SP-derived values then
// join SP's resource transitively.
//
// It fails, on the first clash, when a pin it adds would break Fig. 4
// against a pin the input declared (see pinDef).
func CollectSP(f *ir.Func, info *ssa.Info) error {
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumDefs(); i++ {
				d := in.DefOp(i)
				if d.Pinned() {
					continue
				}
				if phys := info.OrigPhys(d.Val); phys != ir.NoValue {
					if err := pinDef(f, in, i, phys); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// CollectABI pins operands according to the ST120-like ABI and ISA
// renaming constraints (the paper's pinningABI phase, Fig. 1):
//
//   - .input parameter i is defined in ArgRegs[i];
//   - .output result i is read from RetRegs[i];
//   - call argument i is read from ArgRegs[i], call result i is defined
//     in RetRegs[i];
//   - 2-operand instructions (more, autoadd, mac) read their first source
//     from the resource of their destination.
//
// Parameters beyond the register-passed ones are left unpinned (they
// would live on the stack). Like CollectSP, it fails on a pin that
// clashes with a declared one.
func CollectABI(f *ir.Func) error {
	t := f.Target
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			switch {
			case in.Op() == ir.Input:
				// Imm records the declared parameter count; implicit defs
				// added by SSA construction (including SP) are not
				// parameters.
				n := int(in.Imm)
				for i := 0; i < n && i < len(t.ArgRegs) && i < in.NumDefs(); i++ {
					if !in.DefOp(i).Pinned() {
						if err := pinDef(f, in, i, t.ArgRegs[i]); err != nil {
							return err
						}
					}
				}
			case in.Op() == ir.Output:
				for i := 0; i < in.NumUses(); i++ {
					if i < len(t.RetRegs) && !in.UseOp(i).Pinned() {
						if err := pinUse(f, in, i, t.RetRegs[i]); err != nil {
							return err
						}
					}
				}
			case in.Op() == ir.Call:
				for i := 0; i < in.NumUses(); i++ {
					if i < len(t.ArgRegs) && !in.UseOp(i).Pinned() {
						if err := pinUse(f, in, i, t.ArgRegs[i]); err != nil {
							return err
						}
					}
				}
				for i := 0; i < in.NumDefs(); i++ {
					if i < len(t.RetRegs) && !in.DefOp(i).Pinned() {
						if err := pinDef(f, in, i, t.RetRegs[i]); err != nil {
							return err
						}
					}
				}
			case in.Op().IsTwoOperand():
				// Pin the tied source to the destination's resource: the
				// def's existing pin if any, else the defined value itself
				// (paper Fig. 1 S1: autoadd Q^Q, P^Q).
				dst := in.DefOp(0).Pin()
				if dst == ir.NoValue {
					dst = in.Def(0)
				}
				if !in.UseOp(0).Pinned() {
					if err := pinUse(f, in, 0, dst); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// pinDef pins definition i of in to r, unless another definition of in
// already sits in r: Fig. 4 case 1, which Validate would report after
// the pass. Only the input's own pins can cause that (".input A, B:R0"
// asks for R0 twice once the ABI puts A there), so the error is the
// caller's, not the pass's.
func pinDef(f *ir.Func, in *ir.Instr, i int, r ir.ValueID) error {
	for j := 0; j < in.NumDefs(); j++ {
		if in.Def(j) != in.Def(i) && resourceOf(in.DefOp(j)) == r {
			return fmt.Errorf("%s: defs %v and %v of %q both pinned to %v (Fig.4 case 1)",
				f.Name, f.VStr(in.Def(i)), f.VStr(in.Def(j)), in, f.VStr(r))
		}
	}
	in.SetDefPin(i, r)
	return nil
}

// pinUse pins use i of in to r, unless another use of in carrying a
// different value is already pinned to r (Fig. 4 case 2).
func pinUse(f *ir.Func, in *ir.Instr, i int, r ir.ValueID) error {
	for j := 0; j < in.NumUses(); j++ {
		if u := in.UseOp(j); u.Pinned() && u.Pin() == r && u.Val != in.Use(i) {
			return fmt.Errorf("%s: uses %v and %v of %q both pinned to %v (Fig.4 case 2)",
				f.Name, f.VStr(in.Use(i)), f.VStr(u.Val), in, f.VStr(r))
		}
	}
	in.SetUsePin(i, r)
	return nil
}

// resourceOf is the resource an operand names textually: its pin, or
// else its own value.
func resourceOf(o ir.Operand) ir.ValueID {
	if o.Pinned() {
		return o.Pin()
	}
	return o.Val
}

// StrongChecker reports whether two values must never share a resource
// (strong interference); interference.Analysis.StronglyInterfere
// satisfies it.
type StrongChecker interface {
	StronglyInterfere(a, b ir.ValueID) bool
}

// CollectPhiCSSA pins, for every φ, the definitions of the φ result and
// of every φ argument to a common resource (the paper's pinningCSSA
// phase). The input should be in conventional SSA form — φ operands not
// interfering — otherwise the resulting pinned code is over-constrained
// in exactly the way Fig. 2 warns about; it is used to turn the
// out-of-pinned-SSA phase into an out-of-CSSA phase after Sreedhar's
// algorithm has inserted its copies.
//
// Renaming constraints collected earlier (SP, ABI) may make a web union
// illegal: merging two dedicated registers, or merging classes holding
// strongly interfering variables (e.g. two φ results of one block both
// holding call results pinned to R0). Such slots are left unpinned — the
// out-of-pinned-SSA phase then emits a move for them, which is the cost
// of treating the ABI separately from φ congruence ([CS3]). Pass a nil
// checker to skip the strong-interference test.
//
// Def pins are rewritten through the union-find so every member of a φ
// web ends up pinned to the web's representative. Returns the resources
// and the number of slots left unpinned.
func CollectPhiCSSA(f *ir.Func, strong StrongChecker) (*Resources, int, error) {
	res, err := NewResources(f)
	if err != nil {
		return nil, 0, err
	}
	unpinned := 0
	canMerge := func(a, b ir.ValueID) bool {
		ra, rb := res.Find(a), res.Find(b)
		if ra == rb {
			return true
		}
		if f.IsPhys(ra) && f.IsPhys(rb) {
			return false
		}
		if strong == nil {
			return true
		}
		for _, ma := range res.Members(ra) {
			if f.IsPhys(ma) {
				continue
			}
			for _, mb := range res.Members(rb) {
				if f.IsPhys(mb) {
					continue
				}
				if strong.StronglyInterfere(ma, mb) {
					return false
				}
			}
		}
		return true
	}
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			x := phi.Def(0)
			for _, u := range phi.Uses() {
				if !canMerge(x, u.Val) {
					unpinned++
					continue
				}
				if _, err := res.Union(x, u.Val); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	// Materialize the classes as definition pins.
	RepinDefs(f, res)
	return res, unpinned, nil
}

// RepinDefs rewrites every definition pin (and every use pin that names a
// merged resource) to the current class representative, and pins every
// value belonging to a multi-member class. This is the "update of pinning
// performed only once, just before the mark phase" of §3.5.
func RepinDefs(f *ir.Func, res *Resources) {
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for i := 0; i < in.NumDefs(); i++ {
				d := in.DefOp(i)
				root := res.Find(d.Val)
				if root != d.Val {
					in.SetDefPin(i, root)
				} else if d.Pinned() {
					in.SetDefPin(i, root) // self-rooted: drop stale pin names
				}
			}
			for i := 0; i < in.NumUses(); i++ {
				if u := in.UseOp(i); u.Pinned() {
					in.SetUsePin(i, res.Find(u.Pin()))
				}
			}
		}
	}
}
