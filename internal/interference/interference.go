// Package interference implements the paper's interference machinery
// (§3.2-3.3) on SSA form: variable kills (Classes 1-2), strong
// interference (Classes 3-4), and their lifting to resources
// (Resource_killed, Resource_interfere). It also provides the fuzzy
// optimistic/pessimistic Class-1 variants of Algorithm 4 used by the
// Table 5 ablation.
package interference

import (
	"outofssa/internal/bitset"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/obs"
)

// Mode selects the Class-1 kill test precision (paper Algorithm 4).
type Mode int

const (
	// Exact uses per-program-point liveness: b is killed by a iff b's def
	// dominates a's def and b is live just after a's definition.
	Exact Mode = iota
	// Optimistic approximates with block live-out: interferences whose
	// later variable dies inside the block are missed (fewer
	// interferences, cheaper; Table 5 "opt").
	Optimistic
	// Pessimistic approximates with block live-in plus same-block
	// co-definition: spurious interferences are reported (Table 5 "pess").
	Pessimistic
)

func (m Mode) String() string {
	switch m {
	case Optimistic:
		return "opt"
	case Pessimistic:
		return "pess"
	}
	return "exact"
}

// Counters tallies the query volume of an Analysis and its resource
// lifting. These are the hot numbers of the paper's Algorithms 2-4 —
// Variable_kills dominates Program_pinning's runtime — and are read by
// the pipeline tracer after each pass. Plain increments on the query
// paths; never reset.
type Counters struct {
	// KillQueries, InterfereQueries and StrongQueries count calls to
	// Kills, Interfere and StronglyInterfere respectively.
	KillQueries      int64
	InterfereQueries int64
	StrongQueries    int64
	// LiveAfterHits/Misses split the live-after-definition lookups into
	// queries served from existing sparse snapshots and queries that had
	// to build a block's snapshots first.
	LiveAfterHits   int64
	LiveAfterMisses int64
	// ResourceKilled and ResourceInterfere count the resource-level
	// liftings: calls to IsKilled and Interfere of a Table (a lookup and
	// a few word-wise ANDs each), or of a ResourceGraph, where each
	// expands to many variable queries and Interfere computes both
	// classes' killed marks as well.
	ResourceKilled    int64
	ResourceInterfere int64
	// KilledMemoHits and InterfereMemoHits count resource-level verdicts
	// a ResourceGraph served from its per-class memo without
	// recomputation.
	KilledMemoHits    int64
	InterfereMemoHits int64
	// LiveQueryHits and LiveQueryMisses read 0: liveness is one fixed
	// point per function, with no query memo to hit or miss. They remain
	// only because perfbench reads them, until ROADMAP item 6 takes its
	// liveness.query_hit_ratio out.
	LiveQueryHits   int64
	LiveQueryMisses int64
}

// AppendCounters appends the query counters to dst as trace counters,
// in field order. They are named under "Interference.", the field the
// coalesce, pre-pin and leung Stats embed them in.
func (c *Counters) AppendCounters(dst []obs.Counter) []obs.Counter {
	return append(dst,
		obs.Counter{Name: "Interference.KillQueries", Value: c.KillQueries},
		obs.Counter{Name: "Interference.InterfereQueries", Value: c.InterfereQueries},
		obs.Counter{Name: "Interference.StrongQueries", Value: c.StrongQueries},
		obs.Counter{Name: "Interference.LiveAfterHits", Value: c.LiveAfterHits},
		obs.Counter{Name: "Interference.LiveAfterMisses", Value: c.LiveAfterMisses},
		obs.Counter{Name: "Interference.ResourceKilled", Value: c.ResourceKilled},
		obs.Counter{Name: "Interference.ResourceInterfere", Value: c.ResourceInterfere},
		obs.Counter{Name: "Interference.KilledMemoHits", Value: c.KilledMemoHits},
		obs.Counter{Name: "Interference.InterfereMemoHits", Value: c.InterfereMemoHits},
		obs.Counter{Name: "Interference.LiveQueryHits", Value: c.LiveQueryHits},
		obs.Counter{Name: "Interference.LiveQueryMisses", Value: c.LiveQueryMisses})
}

// Analysis answers variable-level interference queries on an SSA
// function. The underlying IR must not change while the analysis is in
// use (resource classes may change freely — they are not consulted here).
type Analysis struct {
	fn   *ir.Func
	live *liveness.Info
	dom  *cfg.DomTree
	mode Mode

	// defs[v] is where v's unique SSA def is: pointer-free, so the GC
	// does not scan the table.
	defs []defSite

	// Live-after-definition sets, built lazily one block at a time: the
	// first query into a block walks it backward once, snapshotting a
	// sparse (sorted value-ID) set at every def-carrying instruction.
	// Sparse snapshots replace the old per-def dense bitsets: queries are
	// a binary search, construction is amortized over the block, and the
	// footprint is the live-set size rather than O(|V|) words per def.
	// laSnap is indexed by InstrID. Both tables are allocated by the
	// first query that needs them; KilledAll never does.
	laSnap  [][]int32
	laBuilt []bool // block ID -> snapshots built
	laPool  bitset.Pool

	c Counters
}

// Counters returns a snapshot of the query counters accumulated so far.
func (a *Analysis) Counters() Counters { return a.c }

// New builds an analysis. live and dom must describe the current f.
func New(f *ir.Func, live *liveness.Info, dom *cfg.DomTree, mode Mode) *Analysis {
	a := &Analysis{
		fn:   f,
		live: live,
		dom:  dom,
		mode: mode,
		defs: make([]defSite, f.NumValues()),
	}
	for i := range a.defs {
		a.defs[i].in = ir.NoInstr
	}
	for _, b := range f.Blocks() {
		for idx, in := range b.Instrs() {
			for _, d := range in.Defs() {
				a.defs[d.Val] = defSite{in: in.ID(), idx: int32(idx)}
			}
		}
	}
	return a
}

// defSite locates a definition: the instruction and its index in its
// block.
type defSite struct {
	in  ir.InstrID
	idx int32
}

// Def returns the unique SSA definition of v, or nil (e.g. physical
// registers have none).
func (a *Analysis) Def(v ir.ValueID) *ir.Instr {
	if in := a.defs[v].in; in != ir.NoInstr {
		return a.fn.Instr(in)
	}
	return nil
}

// defIndex returns the index of v's definition within its block.
func (a *Analysis) defIndex(v ir.ValueID) int { return int(a.defs[v].idx) }

// instrDominates reports whether definition x dominates definition y
// strictly (x's value is available when y executes). φ definitions act at
// block entry.
func (a *Analysis) instrDominates(x, y *ir.Instr, xIdx, yIdx int) bool {
	bx, by := x.Block(), y.Block()
	if bx != by {
		return a.dom.StrictlyDominates(bx, by)
	}
	if x.Op() == ir.Phi && y.Op() == ir.Phi {
		return false // parallel at block entry
	}
	if x.Op() == ir.Phi {
		return true
	}
	if y.Op() == ir.Phi {
		return false
	}
	return xIdx < yIdx
}

// liveAfterHas reports whether the value with the given ID is live
// immediately after def executes; for φ defs, whether it is live-in to
// the φ's block (φ defs act at block entry).
func (a *Analysis) liveAfterHas(def *ir.Instr, id ir.ValueID) bool {
	if def.Op() == ir.Phi {
		a.c.LiveAfterHits++
		return a.live.LiveIn(id, def.Block())
	}
	b := def.Block()
	if a.laBuilt == nil {
		a.laSnap = make([][]int32, a.fn.NumInstrSlots())
		a.laBuilt = make([]bool, a.fn.NumBlocks())
	}
	if !a.laBuilt[b.ID] {
		a.c.LiveAfterMisses++
		a.buildBlockLiveAfter(b)
	} else {
		a.c.LiveAfterHits++
	}
	return sparseHas(a.laSnap[def.ID()], int(id))
}

// buildBlockLiveAfter walks b backward once from its exit-live set,
// recording a sparse live-after snapshot at every non-φ instruction that
// carries a def or a pinned use (pin sites need the live-across set even
// when the instruction defines nothing). One walk serves every later
// query into the block.
func (a *Analysis) buildBlockLiveAfter(b *ir.Block) {
	cur := a.laPool.Get(a.fn.NumValues())
	cur.CopyFrom(a.live.ExitLiveSet(b))
	for i := b.NumInstrs() - 1; i >= 0; i-- {
		in := b.Instr(i)
		if in.Op() == ir.Phi {
			break // φ defs are answered from the block's live-in set
		}
		snapshot := in.NumDefs() > 0
		if !snapshot {
			for _, u := range in.Uses() {
				if u.Pinned() {
					snapshot = true
					break
				}
			}
		}
		if snapshot {
			snap := make([]int32, 0, cur.Len())
			cur.ForEach(func(id int) { snap = append(snap, int32(id)) })
			a.laSnap[in.ID()] = snap
		}
		for _, d := range in.Defs() {
			cur.Remove(int(d.Val))
		}
		for _, u := range in.Uses() {
			cur.Add(int(u.Val))
		}
	}
	a.laPool.Put(cur)
	a.laBuilt[b.ID] = true
}

// sparseHas reports membership of id in a sorted ID slice.
func sparseHas(s []int32, id int) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s[mid]) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && int(s[lo]) == id
}

// Kills implements Variable_kills(a, b) — "a kills b" — of Algorithm 2
// (mode Exact) and Algorithm 4 (Optimistic/Pessimistic):
//
//	Case 1: b's definition dominates v's definition and b is still live
//	        when v is defined — defining v in a common resource would
//	        overwrite b's value.
//	Case 2: v is a φ and b is live out of a predecessor contributing an
//	        argument other than b — the φ move at the end of that
//	        predecessor would overwrite b. Note b == v is possible here:
//	        this is the lost-copy self-kill.
func (an *Analysis) Kills(v, b ir.ValueID) bool {
	an.c.KillQueries++
	defV, defB := an.Def(v), an.Def(b)
	// Case 1.
	if v != b && defV != nil && defB != nil &&
		an.instrDominates(defB, defV, an.defIndex(b), an.defIndex(v)) {
		switch an.mode {
		case Exact:
			if an.liveAfterHas(defV, b) {
				return true
			}
		case Optimistic:
			if an.live.LiveOut(b, defV.Block()) {
				return true
			}
		case Pessimistic:
			if an.live.LiveIn(b, defV.Block()) || defV.Block() == defB.Block() {
				return true
			}
		}
	}
	// Case 2.
	if defV != nil && defV.Op() == ir.Phi {
		blk := defV.Block()
		for i, u := range defV.Uses() {
			if b != u.Val && an.live.LiveOut(b, blk.Pred(i)) {
				return true
			}
		}
	}
	return false
}

// StronglyInterfere implements Variable_stronglyInterfere (Classes 3-4):
// strong interferences cannot be repaired, so pinning the two variables
// together would be incorrect.
func (an *Analysis) StronglyInterfere(a, b ir.ValueID) bool {
	an.c.StrongQueries++
	if a == b {
		return false
	}
	return DefsStronglyInterfere(an.Def(a), an.Def(b))
}

// DefsStronglyInterfere decides Variable_stronglyInterfere for two
// distinct values from their definitions alone (nil for a value without
// one): Classes 3-4 read no liveness.
func DefsStronglyInterfere(defA, defB *ir.Instr) bool {
	if defA == nil || defB == nil {
		return false
	}
	if defA.Op() == ir.Phi && defB.Op() == ir.Phi {
		ba, bb := defA.Block(), defB.Block()
		if ba == bb {
			return true // Case 4: φs of one block execute in parallel
		}
		// Case 3: arguments flowing from a shared predecessor must agree.
		for i, u := range defA.Uses() {
			pred := ba.Pred(i)
			j := bb.PredIndex(pred.ID)
			if j >= 0 && u.Val != defB.Use(j) {
				return true
			}
		}
		return false
	}
	if defA == defB {
		return true // two results of one instruction
	}
	return false
}

// Interfere is the classic SSA interference test used by the Sreedhar
// algorithm and by register coalescing at SSA level: a and b interfere
// iff the dominator-wise earlier one is live at the definition of the
// other (Budimlic et al.).
func (an *Analysis) Interfere(a, b ir.ValueID) bool {
	an.c.InterfereQueries++
	if a == b {
		return false
	}
	defA, defB := an.Def(a), an.Def(b)
	if defA == nil || defB == nil {
		return false
	}
	if an.instrDominates(defA, defB, an.defIndex(a), an.defIndex(b)) {
		return an.liveAfterHas(defB, a)
	}
	if an.instrDominates(defB, defA, an.defIndex(b), an.defIndex(a)) {
		return an.liveAfterHas(defA, b)
	}
	// Same instruction or parallel φs: both values born together.
	if defA == defB {
		return true
	}
	if defA.Op() == ir.Phi && defB.Op() == ir.Phi && defA.Block() == defB.Block() {
		// Parallel φ defs of one block: live ranges both start at entry;
		// they interfere if both are live somewhere, which is true unless
		// one is dead — conservatively report interference.
		return true
	}
	return false
}

// PinSite records a textual use pinned to a resource. Enforcing the pin
// writes the resource just before the instruction, so any other variable
// of that resource still live after the instruction is killed there —
// the ABI analogue of the Class-2 φ-argument clobber.
type PinSite struct {
	// Pin is the resource the use is pinned to (resolve through the
	// union-find at query time).
	Pin ir.ValueID
	// Val is the value being read into the resource.
	Val ir.ValueID
	// In is the instruction carrying the pinned use.
	In *ir.Instr
}

// kills reports whether enforcing this pin site clobbers m: m must be
// live across the instruction — values defined by the instruction itself
// are born after the clobber, and values dying at the instruction are
// rescued locally by the translator. The live-across test goes through
// the analysis' lazy snapshots instead of an eagerly stored set.
func (s PinSite) kills(an *Analysis, m ir.ValueID) bool {
	return m != s.Val && an.liveAfterHas(s.In, m) && !s.In.HasDef(m)
}

// The resource-level lifting of these queries — Resource_killed and
// Resource_interfere over pin.Resources classes — lives in table.go, the
// rows the pinning phases answer from, and in engine.go: the pairwise
// expansion of §3.3 behind ResourceGraph, their test oracle, and the
// one-walk KilledAll for Leung's mark phase.
