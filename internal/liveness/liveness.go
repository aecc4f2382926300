// Package liveness computes live-variable information with the φ
// semantics of the paper (§3.2): a φ instruction "does not occur where it
// textually appears" — its i-th use occurs at the end of the i-th
// predecessor block (where the replacement move would go) and its
// definition occurs at the entry of its own block. Consequently a φ
// argument not otherwise used is dead at the exit of the predecessor and
// at the entry of the φ's block.
package liveness

import (
	"outofssa/internal/bitset"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
)

// Info holds per-block liveness sets plus enough structure for precise
// per-instruction queries. It is backed by one of two engines: the
// iterative fixed point (Compute) fills the dense per-block sets
// eagerly; the query engine (NewQuery) leaves them nil and answers
// through memoized per-variable walks in engine.go. Both expose the
// same API and produce identical answers.
type Info struct {
	fn *ir.Func

	// liveIn[b.ID]: values live at block entry, before φ definitions take
	// effect (φ defs and φ uses are never live-in).
	liveIn []*bitset.Set
	// liveOut[b.ID]: values live at block exit, after the φ-related
	// parallel-copy point (φ uses flowing out of b are not in liveOut).
	liveOut []*bitset.Set
	// exitLive[b.ID] = liveOut[b] plus the φ uses flowing out of b — the
	// live set just before the parallel-copy point at the end of b.
	exitLive []*bitset.Set

	// q is the query-engine state when this Info was built by NewQuery;
	// nil for iterative Infos. Revalidate returns a new wrapper sharing q.
	q *queryState
}

// Compute runs the backward dataflow to a fixed point. It is the
// reference the query engine must match bit for bit: analysis.Liveness
// never runs it on a cache miss, except under the package tests'
// iterative oracle, where TestTablesUnderIterativeOracle renders every
// table through it. The per-block sets come from two slab allocations
// (one for the three escaping families, one for the transient
// gen/kill), and the iteration reuses a single scratch set instead of
// allocating a candidate live-in per block per pass.
func Compute(f *ir.Func) *Info {
	nb := f.NumBlocks()
	nv := f.NumValues()
	info := &Info{
		fn:       f,
		liveIn:   make([]*bitset.Set, nb),
		liveOut:  make([]*bitset.Set, nb),
		exitLive: make([]*bitset.Set, nb),
	}

	escaping := bitset.NewSlab(nv, 3*len(f.Blocks()))
	transient := bitset.NewSlab(nv, 2*len(f.Blocks()))

	// Per-block gen (upward-exposed non-φ uses) and kill (all defs,
	// including φ defs).
	gen := make([]*bitset.Set, nb)
	kill := make([]*bitset.Set, nb)
	for bi, b := range f.Blocks() {
		g, k := transient[2*bi], transient[2*bi+1]
		for _, in := range b.Instrs() {
			if in.Op() != ir.Phi {
				for _, u := range in.Uses() {
					if !k.Has(int(u.Val)) {
						g.Add(int(u.Val))
					}
				}
			}
			for _, d := range in.Defs() {
				k.Add(int(d.Val))
			}
		}
		gen[b.ID], kill[b.ID] = g, k
		info.liveIn[b.ID] = escaping[3*bi]
		info.liveOut[b.ID] = escaping[3*bi+1]
		info.exitLive[b.ID] = escaping[3*bi+2]
	}

	po := cfg.Postorder(f)
	scratch := bitset.New(nv)
	for changed := true; changed; {
		changed = false
		for _, b := range po {
			// exitLive = union of successor live-ins + φ uses from b.
			el := info.exitLive[b.ID]
			el.Clear()
			for _, sid := range b.Succs() {
				s := f.Block(sid)
				el.UnionWith(info.liveIn[sid])
				pi := s.PredIndex(b.ID)
				for _, phi := range s.Phis() {
					el.Add(int(phi.Use(pi)))
				}
			}
			// liveOut = union of successor live-ins (without the φ uses).
			lo := info.liveOut[b.ID]
			lo.Clear()
			for _, sid := range b.Succs() {
				lo.UnionWith(info.liveIn[sid])
			}
			// liveIn = gen ∪ (exitLive \ kill).
			scratch.CopyFrom(el)
			scratch.DiffWith(kill[b.ID])
			scratch.UnionWith(gen[b.ID])
			if !scratch.Equal(info.liveIn[b.ID]) {
				info.liveIn[b.ID].CopyFrom(scratch)
				changed = true
			}
		}
	}
	return info
}

// LiveIn reports whether v is live at the entry of b (φ defs of b are not
// live-in; φ uses flowing into b are not live-in).
func (l *Info) LiveIn(v ir.ValueID, b *ir.Block) bool {
	if l.q != nil {
		return l.q.liveIn(int(v), b)
	}
	return l.liveIn[b.ID].Has(int(v))
}

// LiveOut reports whether v is live at the exit of b, after the φ-copy
// point (paper Class 2 uses exactly this query).
func (l *Info) LiveOut(v ir.ValueID, b *ir.Block) bool {
	if l.q != nil {
		return l.q.liveOut(int(v), b)
	}
	return l.liveOut[b.ID].Has(int(v))
}

// ExitLive reports whether v is live just before the φ parallel-copy
// point at the end of b.
func (l *Info) ExitLive(v ir.ValueID, b *ir.Block) bool {
	if l.q != nil {
		return l.q.exitLive(int(v), b)
	}
	return l.exitLive[b.ID].Has(int(v))
}

// LiveInSet returns the live-in set of b (do not mutate).
func (l *Info) LiveInSet(b *ir.Block) *bitset.Set {
	if l.q != nil {
		in, _, _ := l.q.blockSets(b)
		return in
	}
	return l.liveIn[b.ID]
}

// LiveOutSet returns the live-out set of b (do not mutate).
func (l *Info) LiveOutSet(b *ir.Block) *bitset.Set {
	if l.q != nil {
		_, out, _ := l.q.blockSets(b)
		return out
	}
	return l.liveOut[b.ID]
}

// ExitLiveSet returns the set live just before the φ parallel-copy point
// at the end of b: LiveOut(b) plus φ uses flowing out of b.
func (l *Info) ExitLiveSet(b *ir.Block) *bitset.Set {
	if l.q != nil {
		_, _, exit := l.q.blockSets(b)
		return exit
	}
	return l.exitLive[b.ID]
}

// Incremental reports whether this Info supports Revalidate (query
// engine only).
func (l *Info) Incremental() bool { return l.q != nil }

// LiveAfter returns the set of values live immediately after the idx-th
// instruction of b. φ instructions are transparent (their defs are live
// from block entry; their uses happen in predecessors). The result is
// freshly allocated.
func (l *Info) LiveAfter(b *ir.Block, idx int) *bitset.Set {
	cur := l.ExitLiveSet(b).Copy()
	for i := b.NumInstrs() - 1; i > idx; i-- {
		in := b.Instr(i)
		if in.Op() == ir.Phi {
			break
		}
		for _, d := range in.Defs() {
			cur.Remove(int(d.Val))
		}
		for _, u := range in.Uses() {
			cur.Add(int(u.Val))
		}
	}
	return cur
}

// LiveAtDef reports whether v is live immediately after the instruction
// def (exclusive of def's own definitions other than v). This is the
// precise query behind the exact Class-1 interference test: two SSA
// values interfere iff the dominator-wise earlier one is live at the
// definition point of the later one.
func (l *Info) LiveAtDef(v ir.ValueID, def *ir.Instr) bool {
	b := def.Block()
	if def.Op() == ir.Phi {
		// φ defs happen at block entry, in parallel: v (not a def of this
		// block's φ prefix unless v IS another φ def, handled by strong
		// interference) is live there iff live-in.
		return l.LiveIn(v, b)
	}
	for i, in := range b.Instrs() {
		if in == def {
			return l.LiveAfter(b, i).Has(int(v))
		}
	}
	return false
}
