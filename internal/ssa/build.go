// Package ssa constructs pruned SSA form (Cytron et al., with φs placed
// only where the variable is live) over the machine-level IR, and
// verifies SSA invariants.
//
// Dedicated physical registers appearing in pre-SSA code (e.g. SP) are
// renamed into fresh virtual values exactly like variables; Info.OrigOf
// records the physical origin of each renamed value so the collect phase
// (package pin) can pin them back — the paper's pinningSP.
package ssa

import (
	"fmt"
	"strconv"

	"outofssa/internal/analysis"
	"outofssa/internal/bitset"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
)

// Info describes the SSA form produced by Build.
type Info struct {
	fn *ir.Func
	// OrigOf maps each SSA value to the pre-SSA value it renames.
	// Pre-existing values that were never renamed map to themselves.
	OrigOf map[ir.ValueID]ir.ValueID
	// Dom is the dominator tree of the (unchanged) CFG.
	Dom *cfg.DomTree
}

// EmptyInfo returns an Info with no renaming history, for code built
// directly in SSA form (hand-written tests, figure reproductions).
func EmptyInfo() *Info {
	return &Info{OrigOf: map[ir.ValueID]ir.ValueID{}}
}

// OrigPhys returns the dedicated physical register v renames, or
// NoValue.
func (i *Info) OrigPhys(v ir.ValueID) ir.ValueID {
	if o, ok := i.OrigOf[v]; ok && i.fn.IsPhys(o) {
		return o
	}
	return ir.NoValue
}

// buildError carries a construction failure out of the recursive rename
// walk; Build recovers it and returns it as an ordinary error with the
// function/block/instruction position attached.
type buildError struct{ err error }

// Build converts f (pre-SSA: values may have multiple definitions,
// physical registers may appear as operands) into pruned SSA form in
// place. Unreachable blocks are removed first. Variables that may be used
// before being defined are given an implicit definition on the entry
// .input instruction.
//
// A non-nil error means the input violated an assumption of the
// construction (e.g. a use with no reaching definition that liveness
// failed to expose); f is left in an unspecified partially renamed state
// and must be discarded. Errors here indicate a malformed input or a bug
// in an earlier phase — Build reports them instead of panicking so that
// batch drivers survive one bad function.
func Build(f *ir.Func) (info *Info, err error) {
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(buildError)
			if !ok {
				panic(r) // programmer invariant violations propagate
			}
			info, err = nil, be.err
		}
	}()
	cfg.RemoveUnreachable(f)
	ensureEntryDefs(f)

	dom := analysis.Dominators(f)
	df := cfg.DominanceFrontiers(f, dom)
	live := analysis.Liveness(f)

	// Variables needing renaming: anything defined anywhere.
	defBlocks := make(map[ir.ValueID][]*ir.Block)
	var order []ir.ValueID // deterministic processing order
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if _, ok := defBlocks[d.Val]; !ok {
					order = append(order, d.Val)
				}
				defBlocks[d.Val] = append(defBlocks[d.Val], b)
			}
		}
	}

	// Pruned φ placement: iterated dominance frontier of the def sites,
	// filtered by live-in.
	phiFor := make(map[*ir.Instr]ir.ValueID) // placed φ -> original variable
	for _, v := range order {
		placed := bitset.New(f.NumBlocks())
		onWork := bitset.New(f.NumBlocks())
		var work []*ir.Block
		for _, b := range defBlocks[v] {
			if !onWork.Has(int(b.ID)) {
				onWork.Add(int(b.ID))
				work = append(work, b)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fr := range df[b.ID] {
				if placed.Has(int(fr.ID)) {
					continue
				}
				placed.Add(int(fr.ID))
				if !live.LiveIn(v, fr) {
					continue // pruned SSA: dead φ not inserted
				}
				uses := make([]ir.Operand, fr.NumPreds())
				for i := range uses {
					uses[i] = ir.Operand{Val: v}
				}
				phi := f.NewInstr(ir.Phi, ir.Ops(v), uses)
				fr.InsertAt(0, phi)
				phiFor[phi] = v
				if !onWork.Has(int(fr.ID)) {
					onWork.Add(int(fr.ID))
					work = append(work, fr)
				}
			}
		}
	}

	// Renaming via dominator-tree walk with stacks.
	info = &Info{fn: f, OrigOf: make(map[ir.ValueID]ir.ValueID), Dom: dom}
	for id := 0; id < f.NumValues(); id++ {
		info.OrigOf[ir.ValueID(id)] = ir.ValueID(id)
	}
	stacks := make(map[ir.ValueID][]ir.ValueID)
	versions := make([]int, f.NumValues()) // renamed defs are all pre-existing values

	fresh := func(orig ir.ValueID) ir.ValueID {
		versions[orig]++
		nv := f.NewValue(f.ValueName(orig) + "." + strconv.Itoa(versions[orig]))
		info.OrigOf[nv] = orig
		return nv
	}
	top := func(orig ir.ValueID, b *ir.Block, in *ir.Instr) ir.ValueID {
		s := stacks[orig]
		if len(s) == 0 {
			// Use of a never-defined variable on this path; ensureEntryDefs
			// prevents this for any input that passed ir.Func.Verify, so
			// reaching here means the input (or an earlier phase) is broken.
			// Reported with position context instead of crashing the process.
			panic(buildError{fmt.Errorf("ssa: %s: block %v: %q: use of %v has no reaching definition",
				f.Name, b, in, f.VStr(orig))})
		}
		return s[len(s)-1]
	}

	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		var pushed []ir.ValueID
		for _, in := range b.Instrs() {
			if in.Op() != ir.Phi {
				for i := 0; i < in.NumUses(); i++ {
					in.SetUseVal(i, top(in.Use(i), b, in))
				}
			}
			for i := 0; i < in.NumDefs(); i++ {
				d := in.Def(i)
				nv := fresh(d)
				stacks[d] = append(stacks[d], nv)
				pushed = append(pushed, d)
				in.SetDefVal(i, nv)
			}
		}
		for _, sid := range b.Succs() {
			s := f.Block(sid)
			pi := s.PredIndex(b.ID)
			for _, phi := range s.Phis() {
				orig, ok := phiFor[phi]
				if !ok {
					continue // pre-existing φ (input already SSA) — leave it
				}
				phi.SetUseVal(pi, top(orig, s, phi))
			}
		}
		for _, c := range dom.Children[b.ID] {
			rename(c)
		}
		for i := len(pushed) - 1; i >= 0; i-- {
			orig := pushed[i]
			stacks[orig] = stacks[orig][:len(stacks[orig])-1]
		}
	}
	rename(f.Entry())
	return info, nil
}

// MustBuild is Build for inputs known to be well formed (test fixtures,
// generated workloads); it panics on error.
func MustBuild(f *ir.Func) *Info {
	info, err := Build(f)
	if err != nil {
		panic(err)
	}
	return info
}

// ensureEntryDefs gives every variable that is live into the entry block
// (i.e. possibly used before defined) an implicit definition on the entry
// .input instruction, creating one if the entry has none.
func ensureEntryDefs(f *ir.Func) {
	live := analysis.Liveness(f)
	entry := f.Entry()
	undef := live.LiveInSet(entry)
	if undef.Empty() {
		return
	}
	var input *ir.Instr
	for _, in := range entry.Instrs() {
		if in.Op() == ir.Input {
			input = in
			break
		}
	}
	if input == nil {
		input = f.NewInstr(ir.Input, nil, nil)
		entry.InsertAt(0, input)
	}
	undef.ForEach(func(id int) {
		input.AddDef(ir.Operand{Val: ir.ValueID(id)})
	})
}
