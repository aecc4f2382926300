package ssa

import (
	"fmt"
	"strconv"

	"outofssa/internal/analysis"
	"outofssa/internal/bitset"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
)

// ReferenceBuild is the map-based pruned SSA construction Build
// replaced: def sites, placed φs, renaming stacks and origins in maps,
// two bitsets per variable, a name string concatenated per fresh value,
// and dominance frontiers deduplicated through a map per block. It is
// Build's oracle: on every input the two must leave the same function
// behind, with the same origins, or fail with the same error. It
// returns the origin of every value it leaves behind.
func ReferenceBuild(f *ir.Func) (origOf map[ir.ValueID]ir.ValueID, err error) {
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(referenceError)
			if !ok {
				panic(r)
			}
			origOf, err = nil, be.err
		}
	}()
	cfg.RemoveUnreachable(f)
	ensureEntryDefs(f)

	dom := analysis.Dominators(f)
	df := referenceFrontiers(f, dom)
	live := analysis.Liveness(f)

	defBlocks := make(map[ir.ValueID][]*ir.Block)
	var order []ir.ValueID
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

	phiFor := make(map[*ir.Instr]ir.ValueID)
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
					continue
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

	origOf = make(map[ir.ValueID]ir.ValueID)
	for id := 0; id < f.NumValues(); id++ {
		origOf[ir.ValueID(id)] = ir.ValueID(id)
	}
	stacks := make(map[ir.ValueID][]ir.ValueID)
	versions := make([]int, f.NumValues())

	fresh := func(orig ir.ValueID) ir.ValueID {
		versions[orig]++
		nv := f.NewValue(f.ValueName(orig) + "." + strconv.Itoa(versions[orig]))
		origOf[nv] = orig
		return nv
	}
	top := func(orig ir.ValueID, b *ir.Block, in *ir.Instr) ir.ValueID {
		s := stacks[orig]
		if len(s) == 0 {
			panic(referenceError{fmt.Errorf("ssa: %s: block %v: %q: use of %v has no reaching definition",
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
					continue
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
	return origOf, nil
}

// referenceError carries a failure out of ReferenceBuild's recursive
// walk.
type referenceError struct{ err error }

// referenceFrontiers is the map-per-block cfg.DominanceFrontiers that
// the counting version replaced. It visits the joins in postorder, not
// reverse postorder, which changes nothing: each frontier is sorted.
func referenceFrontiers(f *ir.Func, t *cfg.DomTree) [][]*ir.Block {
	df := make([][]*ir.Block, f.NumBlocks())
	inDF := make([]map[ir.BlockID]bool, f.NumBlocks())
	add := func(b, frontier *ir.Block) {
		if inDF[b.ID] == nil {
			inDF[b.ID] = make(map[ir.BlockID]bool)
		}
		if !inDF[b.ID][frontier.ID] {
			inDF[b.ID][frontier.ID] = true
			df[b.ID] = append(df[b.ID], frontier)
		}
	}
	for _, b := range cfg.Postorder(f) {
		if b.NumPreds() < 2 {
			continue
		}
		for _, pid := range b.Preds() {
			p := f.Block(pid)
			if t.PreNum(p) < 0 {
				continue
			}
			for runner := p; runner != nil && runner != t.Idom[b.ID]; runner = t.Idom[runner.ID] {
				add(runner, b)
			}
		}
	}
	for _, l := range df {
		for i := 1; i < len(l); i++ {
			for j := i; j > 0 && l[j].ID < l[j-1].ID; j-- {
				l[j], l[j-1] = l[j-1], l[j]
			}
		}
	}
	return df
}
