// Package verify is the checked-mode IR verifier of the out-of-SSA
// pipeline. It re-checks, between passes, the invariants the paper's
// correctness argument rests on:
//
//   - structural well-formedness (CFG edge symmetry, terminator
//     placement, φ prefix and arity, operand ownership — ir.Func.Verify);
//   - handle-table coherence: block and instruction handles resolve to
//     the entries that carry them, the assumption every liveness/
//     dominator/interference cache in the repository is built on;
//   - parallel-copy consistency (paired slots, no duplicated
//     destination — parcopy.Check);
//   - SSA form: single definitions and dominance of uses
//     (ssa.VerifyForm);
//   - pin legality: the Figure 4 pinning rules (pin.Validate) plus the
//     paper's central safety claim — no two variables pinned to one
//     resource may *strongly* interfere (Classes 3–4,
//     Variable_stronglyInterfere). Simple interferences (Classes 1–2)
//     are legal: the out-of-pinned-SSA translation repairs them.
//
// The verifier only reads the IR; running it can never change codegen.
// internal/pipeline invokes it after every pass when Config.Verify is
// set, converting violations into *pipeline.PassError values.
package verify

import (
	"fmt"

	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/parcopy"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
)

// Stage names the pipeline position a function is verified at: the
// invariants that must hold depend on whether the function is still in
// SSA form.
type Stage int

const (
	// StageSSA covers every pass from SSA construction up to and
	// including the pinning phases: the function must be structurally
	// well formed, in SSA form, and its pins must be legal.
	StageSSA Stage = iota
	// StagePostSSA covers the out-of-SSA translation and everything
	// after it: structural invariants still hold, and no φ or parallel
	// copy may remain.
	StagePostSSA
)

func (s Stage) String() string {
	if s == StagePostSSA {
		return "post-ssa"
	}
	return "ssa"
}

// Func runs every invariant check appropriate for the stage on f and
// returns the first violation found, or nil. It never mutates f.
func Func(f *ir.Func, stage Stage) error {
	if err := f.Verify(); err != nil {
		return fmt.Errorf("structure: %w", err)
	}
	return check(f, stage, true)
}

// AfterSSAVerify returns what Func(f, StageSSA) returns for a function
// that passed ssa.Verify and has not changed since. It skips the
// structure and SSA-form checks, which ssa.Verify made, so a function
// fresh from SSA construction (which ends with ssa.Verify) is checked
// once for each.
func AfterSSAVerify(f *ir.Func) error { return check(f, StageSSA, false) }

// check runs Func's checks after the structural one; form says whether
// StageSSA includes the SSA-form check.
func check(f *ir.Func, stage Stage, form bool) error {
	if err := checkDenseTables(f); err != nil {
		return fmt.Errorf("tables: %w", err)
	}
	if err := checkParCopies(f); err != nil {
		return err
	}
	switch stage {
	case StageSSA:
		if form {
			if err := ssa.VerifyForm(f); err != nil {
				return fmt.Errorf("ssa: %w", err)
			}
		}
		if err := checkPins(f); err != nil {
			return fmt.Errorf("pins: %w", err)
		}
	case StagePostSSA:
		if err := checkTranslated(f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("verify: unknown stage %d", stage)
	}
	return nil
}

// checkDenseTables asserts the handle coherence every dense cache in
// the repository assumes: every block in the ordered block list is
// reachable through its own handle, block IDs are unique and below
// NumBlocks, and every instruction reached through a block resolves
// back to itself through f.Instr. Liveness bitsets, dominator arrays
// and interference def tables are all sized by NumValues/NumBlocks and
// indexed by handle; corrupting this mapping silently aliases unrelated
// variables in every later analysis.
func checkDenseTables(f *ir.Func) error {
	if f.NumValues() < 0 {
		return fmt.Errorf("%s: negative value count", f.Name)
	}
	seen := make([]*ir.Block, f.NumBlocks())
	for _, b := range f.Blocks() {
		if int(b.ID) < 0 || int(b.ID) >= f.NumBlocks() {
			return fmt.Errorf("%s: block %v has ID %d outside [0,%d)", f.Name, b, b.ID, f.NumBlocks())
		}
		if prev := seen[b.ID]; prev != nil {
			return fmt.Errorf("%s: blocks %v and %v share ID %d", f.Name, prev, b, b.ID)
		}
		seen[b.ID] = b
		if f.Block(b.ID) != b {
			return fmt.Errorf("%s: block %v does not resolve through its handle %d", f.Name, b, b.ID)
		}
		for _, in := range b.Instrs() {
			if f.Instr(in.ID()) != in {
				return fmt.Errorf("%s: instruction %q does not resolve through its handle %d", f.Name, in, in.ID())
			}
		}
	}
	return nil
}

// checkParCopies validates every parallel copy in the function.
func checkParCopies(f *ir.Func) error {
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() != ir.ParCopy {
				continue
			}
			if err := parcopy.Check(in); err != nil {
				return fmt.Errorf("block %v: %w", b, err)
			}
		}
	}
	return nil
}

// checkPins verifies pin legality: resource classes are buildable (no
// two dedicated registers merged), the Figure 4 textual rules hold, and
// no resource class contains a strongly interfering pair — the claim
// that pinning-based coalescing never produces incorrect code. Strong
// interference reads only definitions, so the scan builds no liveness.
func checkPins(f *ir.Func) error {
	if f.CountPins() == 0 {
		return nil
	}
	res, err := pin.NewResources(f)
	if err != nil {
		return err
	}
	if err := pin.Validate(f, res); err != nil {
		return err
	}
	// Strong interference scan: only multi-member classes can violate it.
	var defs []*ir.Instr
	for _, root := range res.Roots() {
		members := res.Members(root)
		virt := members[:0:0]
		for _, m := range members {
			if !f.IsPhys(m) {
				virt = append(virt, m)
			}
		}
		if len(virt) < 2 {
			continue
		}
		if defs == nil {
			defs = make([]*ir.Instr, f.NumValues())
			for _, b := range f.Blocks() {
				for _, in := range b.Instrs() {
					for _, d := range in.Defs() {
						defs[d.Val] = in
					}
				}
			}
		}
		for i := 0; i < len(virt); i++ {
			for j := i + 1; j < len(virt); j++ {
				if interference.DefsStronglyInterfere(defs[virt[i]], defs[virt[j]]) {
					return fmt.Errorf("%s: %v and %v pinned to resource %v but strongly interfere (Classes 3-4)",
						f.Name, f.VStr(virt[i]), f.VStr(virt[j]), f.VStr(res.Find(root)))
				}
			}
		}
	}
	return nil
}

// checkTranslated asserts the out-of-SSA postcondition: no φ and no
// parallel copy survives (ParCopy sequentialization is part of the
// translation contract).
func checkTranslated(f *ir.Func) error {
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			switch in.Op() {
			case ir.Phi:
				return fmt.Errorf("%s: φ %q survived out-of-SSA translation in %v", f.Name, in, b)
			case ir.ParCopy:
				return fmt.Errorf("%s: parallel copy %q not sequentialized in %v", f.Name, in, b)
			}
		}
	}
	return nil
}
