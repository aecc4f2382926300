// Package sreedhar implements Method III of Sreedhar, Ju, Gillies and
// Santhanam, "Translating Out of Static Single Assignment Form" (SAS
// 1999): conversion of SSA to CSSA (conventional SSA) using the
// interference graph and liveness information to minimize the number of
// inserted copies.
//
// In CSSA it is correct to give all resources of a φ congruence class a
// common name and delete the φs. Following the CGO 2004 paper's
// experimental setup, this package only performs the SSA→CSSA conversion
// and returns the congruence classes; the pipeline then pins each class
// to a common resource (pin.CollectPhiCSSA) and reuses the
// out-of-pinned-SSA translation, which by construction inserts no
// further φ moves.
//
// Each φ is processed in isolation ([CS1] in the CGO paper). Copies are
// accumulated into one parallel copy per block boundary and
// sequentialized at the end of the conversion; the original sequential
// insertion of Sreedhar et al. is unsound when several φs of one block
// exchange values (their targets' live ranges overlap the inserted
// copies), a defect later formalized by Boissinot et al., "Revisiting
// Out-of-SSA Translation" (CGO 2009).
package sreedhar

import (
	"slices"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/obs"
)

// Stats describes the conversion.
type Stats struct {
	// CopiesInserted is the number of copies added to break φ resource
	// interferences.
	CopiesInserted int
	// PhisProcessed counts φ instructions handled.
	PhisProcessed int
	// EdgesSplit is the number of critical edges split up front.
	EdgesSplit int
	// IllegalSplitAvoided counts copies that were redirected away from an
	// unsplittable (dedicated-register) web; IllegalSplits counts the
	// cases where no redirection was possible — the paper reports its own
	// Sreedhar implementation producing incorrect code in such cases.
	IllegalSplitAvoided int
	IllegalSplits       int
}

// AppendCounters appends the statistics to dst as trace counters, in
// field order.
func (s *Stats) AppendCounters(dst []obs.Counter) []obs.Counter {
	return append(dst,
		obs.Counter{Name: "CopiesInserted", Value: int64(s.CopiesInserted)},
		obs.Counter{Name: "PhisProcessed", Value: int64(s.PhisProcessed)},
		obs.Counter{Name: "EdgesSplit", Value: int64(s.EdgesSplit)},
		obs.Counter{Name: "IllegalSplitAvoided", Value: int64(s.IllegalSplitAvoided)},
		obs.Counter{Name: "IllegalSplits", Value: int64(s.IllegalSplits)})
}

// Options tunes the conversion.
type Options struct {
	// Unsplittable marks values whose SSA web must not be split by copy
	// insertion, e.g. variables renamed from the dedicated SP register
	// (the paper's pinningSP constraint: "splitting the SSA web of such
	// variables poses some problems").
	Unsplittable func(ir.ValueID) bool
}

// ConvertToCSSA transforms f (SSA) into conventional SSA in place and
// returns the φ congruence classes as a value -> representative map
// (values absent from the map are singleton classes).
func ConvertToCSSA(f *ir.Func, opt Options) (*Stats, map[ir.ValueID]ir.ValueID, error) {
	st := &Stats{EdgesSplit: cfg.SplitCriticalEdges(f)}

	cc := newClasses(f)
	cc.targetPC = make(map[*ir.Block]*ir.Instr)
	cc.edgePC = make(map[*ir.Block]*ir.Instr)

	// Analyses are refreshed before every φ, but only when copy insertion
	// actually moved the function's mutation generation (processPhi notes
	// its in-place φ-operand rewrites), so a run of copy-free φs costs
	// one liveness computation total. The generation is compared here
	// rather than re-requesting analysis.Liveness per φ and relying on
	// pointer identity: the stale check is one integer compare and the
	// analysis cache only sees the requests that actually rebuild.
	var live *liveness.Info
	var an *interference.Analysis
	var liveGen uint64
	refresh := func() {
		if gen := f.Generation(); an == nil || gen != liveGen {
			live = analysis.Liveness(f)
			an = interference.New(f, live, analysis.Dominators(f), interference.Exact)
			liveGen = gen
		}
	}

	// φs are processed one at a time, in block layout order — the
	// sequential treatment of [CS1].
	for _, b := range f.Blocks() {
		var phis []*ir.Instr
		for _, phi := range b.Phis() {
			phis = append(phis, phi)
		}
		for _, phi := range phis {
			refresh()
			st.PhisProcessed++
			cc.processPhi(f, phi, live, an, opt, st)
			// Merge the (possibly renamed) φ resources into one class.
			for _, u := range phi.Uses() {
				cc.union(phi.Def(0), u.Val)
			}
		}
	}

	// The boundary parallel copies are deliberately NOT sequentialized
	// here: their operands are still class members that the destruction
	// phase renames to a single name per class, and only the renamed
	// copies reveal the true cycles (a φ swap becomes "P=Q || Q=P", which
	// needs a temporary). The out-of-pinned-SSA translation sequentializes
	// every remaining ParCopy after renaming.
	classes := make(map[ir.ValueID]ir.ValueID)
	for id := 0; id < f.NumValues(); id++ {
		v := ir.ValueID(id)
		if f.IsPhys(v) {
			continue
		}
		if r := cc.findValue(v); r != v {
			classes[v] = r
		} else if len(cc.lists[r]) > 1 {
			classes[v] = v
		}
	}
	return st, classes, nil
}

// phiResource is one resource position of a φ: the target (at the φ's
// block entry) or an argument (at the end of a predecessor).
type phiResource struct {
	val      ir.ValueID
	blk      *ir.Block // L0 for the target, Li for arguments
	isTarget bool
	argIdx   int
}

// processPhi applies the four-case analysis of Method III to one φ and
// inserts the needed copies, noting the mutation on f when it does.
func (cc *classes) processPhi(f *ir.Func, phi *ir.Instr, live *liveness.Info, an *interference.Analysis, opt Options, st *Stats) {
	b := phi.Block()
	res := []phiResource{{val: phi.Def(0), blk: b, isTarget: true, argIdx: -1}}
	for i, u := range phi.Uses() {
		res = append(res, phiResource{val: u.Val, blk: b.Pred(i), argIdx: i})
	}

	// liveHit reports whether some member of x's congruence class is live
	// at the merge point associated with y: live-out of y's predecessor
	// block for arguments, live-in of the φ block for the target.
	liveHit := func(x, y phiResource) bool {
		for _, m := range cc.members(x.val) {
			if y.isTarget {
				if live.LiveIn(m, y.blk) {
					return true
				}
			} else if live.LiveOut(m, y.blk) {
				return true
			}
		}
		return false
	}
	classesInterfere := func(x, y phiResource) bool {
		if cc.same(x.val, y.val) {
			return false
		}
		for _, mx := range cc.members(x.val) {
			for _, my := range cc.members(y.val) {
				if an.Interfere(mx, my) {
					return true
				}
			}
		}
		return false
	}

	// splittable reports whether inserting a copy for this resource is
	// legal: webs of dedicated registers (SP) must never be split.
	splittable := func(i int) bool {
		if opt.Unsplittable == nil {
			return true
		}
		for _, m := range cc.members(res[i].val) {
			if opt.Unsplittable(m) {
				return false
			}
		}
		return true
	}
	mark := func(needCopy map[int]bool, i, fallback int) {
		if splittable(i) {
			needCopy[i] = true
			return
		}
		st.IllegalSplitAvoided++
		if fallback >= 0 && splittable(fallback) {
			needCopy[fallback] = true
			return
		}
		// No legal choice: split anyway and record it, mirroring the
		// incorrectness the paper reports for its own implementation.
		st.IllegalSplits++
		needCopy[i] = true
	}

	needCopy := make(map[int]bool) // index into res
	type pair struct{ i, j int }
	var unresolved []pair
	for i := 0; i < len(res); i++ {
		for j := i + 1; j < len(res); j++ {
			if res[i].val == res[j].val || !classesInterfere(res[i], res[j]) {
				continue
			}
			hi := liveHit(res[i], res[j]) // class[i] live at j's point
			hj := liveHit(res[j], res[i])
			switch {
			case hi && !hj:
				mark(needCopy, i, j)
			case !hi && hj:
				mark(needCopy, j, i)
			case hi && hj:
				mark(needCopy, i, -1)
				mark(needCopy, j, -1)
			default:
				unresolved = append(unresolved, pair{i, j})
			}
		}
	}
	// "Process the unresolved resources": repeatedly mark the resource
	// with the highest number of unresolved neighbours until every
	// unresolved pair has a marked endpoint.
	for {
		deg := make(map[int]int)
		for _, p := range unresolved {
			if !needCopy[p.i] && !needCopy[p.j] {
				deg[p.i]++
				deg[p.j]++
			}
		}
		if len(deg) == 0 {
			break
		}
		best, bestDeg := -1, -1
		for i := 0; i < len(res); i++ {
			if d, ok := deg[i]; ok && d > bestDeg && splittable(i) {
				best, bestDeg = i, d
			}
		}
		if best < 0 {
			// Only unsplittable resources remain: take the highest degree
			// one anyway and record the illegal split.
			for i := 0; i < len(res); i++ {
				if d, ok := deg[i]; ok && d > bestDeg {
					best, bestDeg = i, d
				}
			}
			st.IllegalSplits++
		}
		needCopy[best] = true
	}

	// Insert the copies (sequential moves — [CS2]).
	for i := range res {
		if !needCopy[i] {
			continue
		}
		st.CopiesInserted++
		r := res[i]
		xnew := f.NewValue(f.ValueName(r.val) + ".c")
		if r.isTarget {
			// xnew becomes the φ target; x0 = xnew joins the parallel copy
			// at the top of L0 (all target copies of one block are
			// simultaneous — sequential insertion would let one target's
			// new definition overlap another's pending read).
			pc := cc.targetPC[b]
			if pc == nil {
				pc = f.NewInstr(ir.ParCopy, nil, nil)
				b.InsertAt(b.FirstNonPhi(), pc)
				cc.targetPC[b] = pc
			}
			pc.AddDef(ir.Operand{Val: r.val})
			pc.AddUse(ir.Operand{Val: xnew})
			phi.SetDefVal(0, xnew)
		} else {
			// xnew = xi joins the parallel copy at the end of Li.
			pc := cc.edgePC[r.blk]
			if pc == nil {
				pc = f.NewInstr(ir.ParCopy, nil, nil)
				r.blk.InsertBeforeTerminator(pc)
				cc.edgePC[r.blk] = pc
			}
			pc.AddDef(ir.Operand{Val: xnew})
			pc.AddUse(ir.Operand{Val: r.val})
			phi.SetUseVal(r.argIdx, xnew)
		}
	}
}

// classes is a growable union-find over value IDs (values created during
// conversion are admitted lazily). As in Sreedhar et al., each class is
// also an explicit set: its root keeps the virtual members in ascending
// ID order, merged at union, so enumerating a class costs its size
// rather than a scan of the function.
type classes struct {
	fn     *ir.Func
	parent []int
	// lists[r] holds root r's virtual members in ascending ID order; a
	// physical register contributes none. Non-root entries are nil.
	lists [][]ir.ValueID
	// targetPC and edgePC accumulate this conversion's copies as one
	// parallel copy per block boundary.
	targetPC map[*ir.Block]*ir.Instr
	edgePC   map[*ir.Block]*ir.Instr
}

func newClasses(f *ir.Func) *classes {
	c := &classes{fn: f}
	c.grow(f.NumValues())
	return c
}

// grow admits the values below n as singleton classes. One backing
// array serves every new singleton list: union always builds a fresh
// merged list, so no list is ever written after it is made.
func (c *classes) grow(n int) {
	old := len(c.parent)
	if n <= old {
		return
	}
	ids := make([]ir.ValueID, n-old)
	c.parent = slices.Grow(c.parent, n-old)
	c.lists = slices.Grow(c.lists, n-old)
	for i := range ids {
		ids[i] = ir.ValueID(old + i)
		c.parent = append(c.parent, old+i)
		var m []ir.ValueID
		if !c.fn.IsPhys(ids[i]) {
			m = ids[i : i+1 : i+1]
		}
		c.lists = append(c.lists, m)
	}
}

func (c *classes) find(id int) int {
	c.grow(id + 1)
	for c.parent[id] != id {
		c.parent[id] = c.parent[c.parent[id]]
		id = c.parent[id]
	}
	return id
}

func (c *classes) union(a, b ir.ValueID) {
	ra, rb := c.find(int(a)), c.find(int(b))
	if ra != rb {
		c.parent[rb] = ra
		c.lists[ra] = ir.MergeIDs(c.lists[ra], c.lists[rb])
		c.lists[rb] = nil
	}
}

func (c *classes) same(a, b ir.ValueID) bool {
	return c.find(int(a)) == c.find(int(b))
}

func (c *classes) findValue(v ir.ValueID) ir.ValueID {
	return ir.ValueID(c.find(int(v)))
}

// members returns the virtual values of v's congruence class in
// ascending ID order: the root's merged list, read-only to the caller.
func (c *classes) members(v ir.ValueID) []ir.ValueID {
	return c.lists[c.find(int(v))]
}
