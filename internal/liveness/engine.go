// Query-based liveness engine.
//
// The iterative engine (Compute) solves the backward dataflow globally:
// every request costs O(blocks × vars) words of set unions, repeated to
// a fixed point, and any code mutation throws the whole Info away. But
// the pinning machinery of the paper (§3.2, Variable_kills Classes 1-2)
// almost exclusively asks point queries — "is v live at the end of
// block b" — and in (strict) SSA form such queries are answerable from
// per-variable structure alone: a variable is live exactly on the
// backward-reachable region between its uses and its definition, and
// that region depends on nothing but the variable's own def/use summary
// and the CFG. The query engine exploits this:
//
//   - one linear scan builds a per-variable summary: blocks containing
//     defs, blocks with an upward-exposed (non-φ) use, and reachable
//     predecessor blocks feeding a φ use (the paper's "use at the end
//     of the predecessor" semantics);
//   - the first query about a variable runs one backward walk from the
//     summary's seed blocks through the reachable CFG, memoizing three
//     block sets (live-in / live-out / exit-live regions). Each block
//     is visited at most once — liveness of a single variable is plain
//     backward reachability, no fixed point;
//   - strict variables (single def whose block dominates every use)
//     answer many point queries without even walking: outside the def
//     block's dominance subtree the variable is provably dead. This is
//     the dominator-forest fast path; it is applied only to variables
//     whose summary *proves* strictness, so multi-def post-SSA values,
//     physical registers and corrupted IR still get the exact walk;
//   - dense set queries (LiveInSet etc.) assemble a per-block value set
//     lazily from the memoized walks: candidates are the strict
//     variables defined on the block's dominator chain plus the
//     non-strict ones, so the assembly is output-sized instead of
//     all-pairs.
//
// Incremental invalidation: a code-only mutation (same CFG generation)
// re-scans the summaries and drops only the walks of variables whose
// summary actually changed — a walk is a pure function of (summary,
// CFG), so an unchanged summary under an unchanged CFG keeps its memo.
// CFG mutations rebuild everything (analysis.Liveness keys on the
// split generation counters from DESIGN.md §8).
//
// The engine reproduces the iterative results bit for bit, including
// on irregular IR: unreachable blocks keep empty sets (the fixed point
// never visits them), multi-def and use-before-def variables take the
// exact walk, and φ uses whose predecessor is unreachable contribute
// nothing. engines_test.go and FuzzLivenessEngines enforce this.
package liveness

import (
	"sort"

	"outofssa/internal/bitset"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
)

// iterativeOracle makes NewQuery return the iterative fixed point
// (Compute) instead of a query Info, so every analysis.Liveness cache
// miss runs the reference the query engine must match. Only the
// package's tests set it (export_test.go).
var iterativeOracle bool

// QueryStats counts the query engine's traffic on one Info. Zero for
// iterative Infos. Hits are queries answered from an existing memo (or
// the strict-dominance short circuit); Misses had to run a per-variable
// walk or assemble a block set first; VarRecomputes counts the walks
// actually executed and BlockBuilds the dense per-block assemblies.
type QueryStats struct {
	Hits          int64
	Misses        int64
	VarRecomputes int64
	BlockBuilds   int64
}

// varSummary is the per-variable def/use structure a walk depends on.
// The block-ID seeds live in the owning summarySet's shared arenas,
// referenced here by [off, end) ranges — the summary itself is
// pointer-free, which keeps the long-lived analysis cache cheap for
// the garbage collector to scan, and a whole rebuild costs four
// (recycled) allocations instead of three per variable. All seed
// ranges are sorted and deduplicated, making summary comparison (the
// revalidation filter) a plain range compare.
type varSummary struct {
	// nDefs counts def operands of the variable across the function
	// (multiple defs — post-SSA code — make the variable non-strict).
	nDefs int32
	// defBlk is the defining block of a strict variable, -1 otherwise.
	defBlk int32
	// strict: single def, def block reachable, no use-before-def in the
	// def block, and the def block dominates every use block. Exactly
	// the precondition of the dominance fast path, proven per variable.
	strict bool
	// defs ranges over blocks containing at least one def (the walk's
	// kill test); up over reachable blocks with an upward-exposed non-φ
	// use; phi over reachable predecessor blocks at whose end a φ reads
	// the variable (paper §3.2).
	defsOff, defsEnd int32
	upOff, upEnd     int32
	phiOff, phiEnd   int32
}

// summarySet is one generation of summaries: the per-variable records
// plus the three seed arenas their ranges index. The engine keeps two
// (current and retired) and swaps on revalidation, so steady-state
// rebuilds allocate nothing.
type summarySet struct {
	sums []varSummary
	// defs/up/phi are views into arena, carved per build — one backing
	// allocation for all three seed kinds.
	arena []int32
	defs  []int32
	up    []int32
	phi   []int32
}

func (ss *summarySet) defsOf(id int) []int32 {
	s := &ss.sums[id]
	return ss.defs[s.defsOff:s.defsEnd]
}

func (ss *summarySet) upOf(id int) []int32 {
	s := &ss.sums[id]
	return ss.up[s.upOff:s.upEnd]
}

func (ss *summarySet) phiOf(id int) []int32 {
	s := &ss.sums[id]
	return ss.phi[s.phiOff:s.phiEnd]
}

// equalVar reports whether variable id has the same summary in both
// sets (offsets are storage detail; contents decide).
func (ss *summarySet) equalVar(o *summarySet, id int) bool {
	return ss.sums[id].nDefs == o.sums[id].nDefs &&
		eqInt32s(ss.defsOf(id), o.defsOf(id)) &&
		eqInt32s(ss.upOf(id), o.upOf(id)) &&
		eqInt32s(ss.phiOf(id), o.phiOf(id))
}

func eqInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// packEvent packs a (variable ID, block ID) seed event into one word:
// variable in the high half, block in the low. Sorting-free: events are
// scattered through the per-variable cursors, which preserves the
// block-layout order the summaries rely on.
func packEvent(id int, bid int32) int64 {
	return int64(id)<<32 | int64(uint32(bid))
}

// hasBlk reports membership of id in a sorted block-ID slice.
func hasBlk(s []int32, id int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == id
}

// varWalk memoizes one variable's walk as the live-in block region: wpb
// words at walkWords[off]. The other two regions are derived — a
// variable is live-out of b iff it is live-in to some successor, and
// exit-live iff live-out or read by a φ at b's end (a sorted-summary
// lookup) — so storing live-in alone makes the walk three times
// smaller and its BFS three times lighter. Valid for the (summary,
// CFG) pair it was computed under. Keeping an offset instead of set
// pointers makes []varWalk pointer-free: thousands of memoized walks
// sit in the long-lived analysis cache, and the garbage collector's
// mark phase was the query engine's dominant overhead when each walk
// was separately allocated sets.
type varWalk struct {
	done bool
	off  int32
}

func bitAdd(w []uint64, i int) {
	w[i>>6] |= 1 << uint(i&63)
}

func bitHas(w []uint64, i int) bool {
	return w[i>>6]&(1<<uint(i&63)) != 0
}

// queryState is the engine behind a query-built Info. Info wrappers
// share it: Revalidate returns a fresh *Info around the same state, so
// pointer identity on Info retains its "content may have changed"
// meaning for consumers that cache analyses.
type queryState struct {
	fn  *ir.Func
	dom *cfg.DomTree
	nb  int // block-ID space at build time
	nv  int // value-ID space at the last (re)build

	reach   []bool
	blkByID []*ir.Block

	// cur holds the live summaries; prev is the retired generation,
	// kept only for its backing storage: each revalidation builds the
	// fresh summaries into prev, diffs against cur, then swaps.
	// Revalidation happens once per code mutation on the pipeline's hot
	// path, so its steady-state allocation rate matters as much as the
	// iterative engine's did.
	cur, prev summarySet

	walks []varWalk

	// The strict variables defined in block b — the dominator-chain
	// candidates — are strictIDs[strictOff[b-1]:strictOff[b]] (0-origin
	// for b == 0); nonStrict lists every other variable with at least
	// one seed. Together they cover all possibly-live variables of any
	// block. CSR layout for the same reason as the walks: no per-block
	// slice objects in the long-lived cache.
	strictOff []int32 // len nb+1
	strictIDs []int32
	nonStrict []int32

	// Lazily assembled dense per-block sets (value-ID sets), reset
	// wholesale on revalidation — they are cheap to rebuild from the
	// surviving walks, and their storage recycles through setPool.
	blkDone                []bool
	blkIn, blkOut, blkExit []*bitset.Set

	// Walk storage: one flat word arena, wpb words (one live-in
	// bit-plane) per walk. Invalidated walks park their offset on
	// walkFree for reuse (cleared on reallocation).
	wpb       int
	walkWords []uint64
	walkFree  []int32

	queue  []int32 // walk worklist scratch
	stamps []int32 // summary-scan epoch stamps: defStamp ++ useStamp
	// Packed (variable, block) seed events recorded while counting, so
	// the arena fill is a linear scatter instead of a second
	// operand-chasing scan of the instruction stream.
	evDef, evUp, evPhi []int64
	setPool            bitset.Pool

	stats QueryStats
}

// NewQuery builds a query-engine Info for f. dom must be the dominator
// tree of f's current CFG (analysis.Liveness passes its memoized one,
// keyed on the CFG generation). Under the iterative oracle it returns
// Compute(f) instead.
func NewQuery(f *ir.Func, dom *cfg.DomTree) *Info {
	if iterativeOracle {
		return Compute(f)
	}
	q := &queryState{
		fn:  f,
		dom: dom,
		nb:  f.NumBlocks(),
		nv:  f.NumValues(),
	}
	// Reachability falls out of the dominator tree: a block is reachable
	// iff it is the entry or has an immediate dominator. Deriving it here
	// saves the depth-first traversal cfg.Reachable would repeat.
	q.reach = make([]bool, q.nb)
	if len(f.Blocks()) > 0 {
		entry := f.Entry()
		for _, b := range f.Blocks() {
			if b == entry || (int(b.ID) < len(dom.Idom) && dom.Idom[b.ID] != nil) {
				q.reach[b.ID] = true
			}
		}
	}
	q.wpb = (q.nb + 63) / 64
	q.blkByID = make([]*ir.Block, q.nb)
	for _, b := range f.Blocks() {
		q.blkByID[b.ID] = b
	}
	q.buildSummaries(&q.cur)
	q.walks = make([]varWalk, q.nv)
	q.buildIndex()
	return &Info{fn: f, q: q}
}

// QueryStats returns the engine counters of a query Info (zero for the
// iterative engine). The counters accumulate over the state's lifetime,
// across Revalidate; consumers that want per-phase numbers (the
// interference analysis) diff two snapshots.
func (l *Info) QueryStats() QueryStats {
	if l.q == nil {
		return QueryStats{}
	}
	return l.q.stats
}

// Revalidate adapts a query Info to a code-only mutation of its
// function (the CFG generation must not have moved — the caller,
// analysis.Liveness, guarantees it). It re-scans the per-variable
// summaries and keeps every memoized walk whose summary is unchanged: a
// walk depends only on (summary, CFG), so the surviving memos stay
// exact. It returns a fresh Info wrapper sharing the engine state plus
// the number of walks kept and dropped. Panics on iterative Infos
// (callers gate on Incremental()).
//
// Revalidation recycles storage: the dense block sets handed out by
// LiveInSet and friends before the call, and the walks of invalidated
// variables, are returned to the engine's pools and may be overwritten
// by later queries. Consumers must not hold those sets across a
// mutation — the ones that keep them (regalloc, coalescing) already
// Copy() before mutating, and everything else re-queries.
func (l *Info) Revalidate() (*Info, int, int) {
	q := l.q
	q.nv = q.fn.NumValues()
	q.buildSummaries(&q.prev) // fresh summaries, retired storage
	if cap(q.walks) >= q.nv {
		// The extended region is zero: walks never shrinks and the
		// capacity came zeroed from make.
		q.walks = q.walks[:q.nv]
	} else {
		grown := make([]varWalk, q.nv, q.nv+q.nv/2)
		copy(grown, q.walks)
		q.walks = grown
	}
	kept, dropped := 0, 0
	for id := range q.walks {
		w := &q.walks[id]
		if !w.done {
			continue
		}
		if id < len(q.cur.sums) && q.cur.equalVar(&q.prev, id) {
			kept++
		} else {
			dropped++
			q.walkFree = append(q.walkFree, w.off)
			*w = varWalk{}
		}
	}
	q.cur, q.prev = q.prev, q.cur
	q.buildIndex()
	return &Info{fn: q.fn, q: q}, kept, dropped
}

// buildSummaries scans the function and fills dst (recycling its
// storage) with the summary of every value: pass one counts each
// variable's seeds, a prefix sum carves the shared arenas, pass two
// fills them. Upward exposure uses the same prefix rule as the
// iterative engine's gen/kill construction: a non-φ use is upward
// exposed iff no def of the value precedes it in its block (φ defs
// count — they act at block entry).
func (q *queryState) buildSummaries(dst *summarySet) {
	nv := q.fn.NumValues()
	if cap(dst.sums) < nv {
		dst.sums = make([]varSummary, nv)
	} else {
		dst.sums = dst.sums[:nv]
	}
	sums := dst.sums
	for id := range sums {
		sums[id] = varSummary{defBlk: -1}
	}
	if cap(q.stamps) < 2*nv {
		q.stamps = make([]int32, 2*nv)
	} else {
		q.stamps = q.stamps[:2*nv]
		for i := range q.stamps {
			q.stamps[i] = 0
		}
	}
	defStamp, useStamp := q.stamps[:nv], q.stamps[nv:]
	evDef, evUp, evPhi := q.evDef[:0], q.evUp[:0], q.evPhi[:0]

	// One scan: count seeds per variable (the End fields are the
	// counters) and record each seed as a packed (variable, block)
	// event, so the arena fill below is a linear scatter instead of a
	// second operand-chasing walk over the instruction stream.
	for bi, b := range q.fn.Blocks() {
		epoch := int32(bi + 1)
		bid := int32(b.ID)
		reachable := int(b.ID) < len(q.reach) && q.reach[b.ID]
		for _, in := range b.Instrs() {
			if in.Op() != ir.Phi {
				for _, u := range in.Uses() {
					id := u.Val
					if defStamp[id] != epoch && useStamp[id] != epoch {
						useStamp[id] = epoch
						if reachable {
							sums[id].upEnd++
							evUp = append(evUp, packEvent(int(id), bid))
						}
					}
				}
			}
			for _, d := range in.Defs() {
				id := d.Val
				sums[id].nDefs++
				if defStamp[id] != epoch {
					defStamp[id] = epoch
					sums[id].defsEnd++
					evDef = append(evDef, packEvent(int(id), bid))
				}
			}
		}
		// φ uses read at the end of each reachable predecessor. Arity
		// mismatches (corrupted IR, caught by the verifier) are skipped
		// rather than crashed on: the engine stays total.
		if b.NumPhis() > 0 {
			for i, p := range b.Preds() {
				if int(p) >= len(q.reach) || !q.reach[p] {
					continue
				}
				pid := int32(p)
				for _, phi := range b.Phis() {
					if i >= phi.NumUses() {
						continue
					}
					id := phi.Use(i)
					sums[id].phiEnd++
					evPhi = append(evPhi, packEvent(int(id), pid))
				}
			}
		}
	}
	q.evDef, q.evUp, q.evPhi = evDef, evUp, evPhi

	// Prefix sums turn the counts into arena ranges; the End fields
	// become the fill cursors of the scatter.
	var dTot, uTot, pTot int32
	for id := range sums {
		s := &sums[id]
		dN, uN, pN := s.defsEnd, s.upEnd, s.phiEnd
		s.defsOff, s.defsEnd = dTot, dTot
		s.upOff, s.upEnd = uTot, uTot
		s.phiOff, s.phiEnd = pTot, pTot
		dTot += dN
		uTot += uN
		pTot += pN
	}
	total := int(dTot) + int(uTot) + int(pTot)
	if cap(dst.arena) < total {
		dst.arena = make([]int32, total)
	} else {
		dst.arena = dst.arena[:total]
	}
	dst.defs = dst.arena[:dTot]
	dst.up = dst.arena[dTot : int(dTot)+int(uTot)]
	dst.phi = dst.arena[int(dTot)+int(uTot):]

	for _, e := range evDef {
		s := &sums[e>>32]
		dst.defs[s.defsEnd] = int32(uint32(e))
		s.defsEnd++
	}
	for _, e := range evUp {
		s := &sums[e>>32]
		dst.up[s.upEnd] = int32(uint32(e))
		s.upEnd++
	}
	for _, e := range evPhi {
		s := &sums[e>>32]
		dst.phi[s.phiEnd] = int32(uint32(e))
		s.phiEnd++
	}

	for id := range sums {
		s := &sums[id]
		s.defsEnd = s.defsOff + int32(sortDedup(dst.defs[s.defsOff:s.defsEnd]))
		s.upEnd = s.upOff + int32(sortDedup(dst.up[s.upOff:s.upEnd]))
		s.phiEnd = s.phiOff + int32(sortDedup(dst.phi[s.phiOff:s.phiEnd]))
		if s.nDefs != 1 || s.defsEnd != s.defsOff+1 {
			continue
		}
		db := q.blkByID[dst.defs[s.defsOff]]
		if db == nil || !q.reach[db.ID] {
			continue
		}
		strict := true
		for _, u := range dst.up[s.upOff:s.upEnd] {
			if u == dst.defs[s.defsOff] || !q.dom.Dominates(db, q.blkByID[u]) {
				strict = false
				break
			}
		}
		if strict {
			for _, p := range dst.phi[s.phiOff:s.phiEnd] {
				if !q.dom.Dominates(db, q.blkByID[p]) {
					strict = false
					break
				}
			}
		}
		if strict {
			s.strict = true
			s.defBlk = dst.defs[s.defsOff]
		}
	}
}

func growInt32(s []int32, n int32) []int32 {
	if cap(s) < int(n) {
		return make([]int32, n)
	}
	return s[:n]
}

// sortDedup sorts a small block-ID range in place, removes duplicates,
// and returns the deduplicated length. The scan fills in block-layout
// order, which is ID order for defs and upward uses, so the sort is
// usually a no-op; φ-edge predecessors can arrive out of order.
func sortDedup(v []int32) int {
	if len(v) < 2 {
		return len(v)
	}
	sorted := true
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	out := 1
	for _, x := range v[1:] {
		if x != v[out-1] {
			v[out] = x
			out++
		}
	}
	return out
}

// buildIndex rebuilds the block-set candidate index and resets the
// dense per-block memos, recycling their storage (the Revalidate doc
// states the lifetime contract). Called after every (re)build of the
// summaries.
func (q *queryState) buildIndex() {
	if q.strictOff == nil {
		q.strictOff = make([]int32, q.nb+1)
		q.blkDone = make([]bool, q.nb)
		sets := make([]*bitset.Set, 3*q.nb)
		q.blkIn = sets[:q.nb:q.nb]
		q.blkOut = sets[q.nb : 2*q.nb : 2*q.nb]
		q.blkExit = sets[2*q.nb:]
	} else {
		for i := range q.strictOff {
			q.strictOff[i] = 0
		}
		for i, done := range q.blkDone {
			if !done {
				continue
			}
			q.blkDone[i] = false
			q.setPool.Put(q.blkIn[i])
			q.setPool.Put(q.blkOut[i])
			q.setPool.Put(q.blkExit[i])
			q.blkIn[i], q.blkOut[i], q.blkExit[i] = nil, nil, nil
		}
	}
	off := q.strictOff
	q.nonStrict = q.nonStrict[:0]
	for id := range q.cur.sums {
		s := &q.cur.sums[id]
		if s.strict {
			off[s.defBlk+1]++
		} else if s.upEnd > s.upOff || s.phiEnd > s.phiOff {
			q.nonStrict = append(q.nonStrict, int32(id))
		}
	}
	for b := 0; b < q.nb; b++ {
		off[b+1] += off[b]
	}
	q.strictIDs = growInt32(q.strictIDs, off[q.nb])
	// Filling advances off[b] from start(b) to end(b); since
	// end(b) == start(b+1), block b's range afterwards is
	// [off[b-1], off[b]) with an implicit 0 for b == 0.
	for id := range q.cur.sums {
		s := &q.cur.sums[id]
		if s.strict {
			q.strictIDs[off[s.defBlk]] = int32(id)
			off[s.defBlk]++
		}
	}
}

// strictDefsOf returns the strict variables defined in block bid.
func (q *queryState) strictDefsOf(bid int) []int32 {
	var lo int32
	if bid > 0 {
		lo = q.strictOff[bid-1]
	}
	return q.strictIDs[lo:q.strictOff[bid]]
}

// walkOf returns the memoized walk of a variable, running it on first
// request. The walk is the exact per-variable projection of the global
// dataflow: seed the upward-exposed use blocks (live-in there) and the
// φ-feeding predecessors (exit-live there, live-in too unless the block
// kills), then propagate live-in backward through reachable
// predecessors, stopping at blocks that define the variable. Each block
// enters the worklist at most once.
func (q *queryState) walkOf(id int) int32 {
	w := &q.walks[id]
	if w.done {
		return w.off
	}
	q.stats.VarRecomputes++
	need := q.wpb
	var off int32
	if n := len(q.walkFree); n > 0 {
		off = q.walkFree[n-1]
		q.walkFree = q.walkFree[:n-1]
		reuse := q.walkWords[off : int(off)+need]
		for i := range reuse {
			reuse[i] = 0
		}
	} else {
		off = int32(len(q.walkWords))
		if len(q.walkWords)+need > cap(q.walkWords) {
			grown := make([]uint64, len(q.walkWords), 2*cap(q.walkWords)+need)
			copy(grown, q.walkWords)
			q.walkWords = grown
		}
		// The fresh region is zero: make zeroes the whole capacity and
		// the arena only ever grows.
		q.walkWords = q.walkWords[:len(q.walkWords)+need]
	}
	w.off, w.done = off, true
	in := q.walkWords[off : int(off)+q.wpb]
	defs := q.cur.defsOf(id)
	queue := q.queue[:0]
	for _, u := range q.cur.upOf(id) {
		if !bitHas(in, int(u)) {
			bitAdd(in, int(u))
			queue = append(queue, u)
		}
	}
	for _, p := range q.cur.phiOf(id) {
		// exit-live and not killed in the block ⇒ live-in (gen ∪ (exit \ kill)).
		if !hasBlk(defs, p) && !bitHas(in, int(p)) {
			bitAdd(in, int(p))
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		bid := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range q.blkByID[bid].Preds() {
			if int(p) >= len(q.reach) || !q.reach[p] {
				continue // the fixed point never visits unreachable blocks
			}
			if !hasBlk(defs, int32(p)) && !bitHas(in, int(p)) {
				bitAdd(in, int(p))
				queue = append(queue, int32(p))
			}
		}
	}
	q.queue = queue[:0]
	return off
}

// walkIn returns the live-in bit-plane of a memoized walk.
func (q *queryState) walkIn(off int32) []uint64 {
	return q.walkWords[off : int(off)+q.wpb]
}

// walkOutHas derives live-out of bid from the live-in plane: live-out
// iff live-in to some successor — the same successor union the
// iterative fixed point takes. The ID guard keeps the engine total on
// corrupted CFGs (a silently spliced edge may point at a block the
// walk was not sized for).
func (q *queryState) walkOutHas(in []uint64, bid int) bool {
	for _, s := range q.blkByID[bid].Succs() {
		if int(s) < q.nb && bitHas(in, int(s)) {
			return true
		}
	}
	return false
}

// deadByDominance is the strict-variable fast path: a strict variable
// is live only within the dominance region of its defining block, so a
// query about any block outside it is false without a walk.
func (q *queryState) deadByDominance(s *varSummary, b *ir.Block) bool {
	return s.strict && !q.dom.Dominates(q.blkByID[s.defBlk], b)
}

// countedWalk is walkOf plus the hit/miss accounting of a point query,
// with a single memo check.
func (q *queryState) countedWalk(id int) int32 {
	if w := &q.walks[id]; w.done {
		q.stats.Hits++
		return w.off
	}
	q.stats.Misses++
	return q.walkOf(id)
}

func (q *queryState) liveIn(id int, b *ir.Block) bool {
	if id < 0 || id >= len(q.cur.sums) || int(b.ID) >= q.nb || !q.reach[b.ID] {
		return false
	}
	if q.deadByDominance(&q.cur.sums[id], b) {
		q.stats.Hits++
		return false
	}
	return bitHas(q.walkIn(q.countedWalk(id)), int(b.ID))
}

func (q *queryState) liveOut(id int, b *ir.Block) bool {
	if id < 0 || id >= len(q.cur.sums) || int(b.ID) >= q.nb || !q.reach[b.ID] {
		return false
	}
	if q.deadByDominance(&q.cur.sums[id], b) {
		q.stats.Hits++
		return false
	}
	return q.walkOutHas(q.walkIn(q.countedWalk(id)), int(b.ID))
}

func (q *queryState) exitLive(id int, b *ir.Block) bool {
	if id < 0 || id >= len(q.cur.sums) || int(b.ID) >= q.nb || !q.reach[b.ID] {
		return false
	}
	if q.deadByDominance(&q.cur.sums[id], b) {
		q.stats.Hits++
		return false
	}
	if q.walkOutHas(q.walkIn(q.countedWalk(id)), int(b.ID)) {
		return true
	}
	return hasBlk(q.cur.phiOf(id), int32(b.ID))
}

// blockSets assembles (and memoizes) the dense value sets of one block
// from the per-variable walks. Candidates are the strict variables
// defined on b's dominator chain — a strict variable live anywhere in b
// has its def dominating b — plus every non-strict variable.
// Unreachable blocks keep empty sets, like the iterative engine.
func (q *queryState) blockSets(b *ir.Block) (in, out, exit *bitset.Set) {
	bid := int(b.ID)
	if bid < len(q.blkDone) && q.blkDone[bid] {
		q.stats.Hits++
		return q.blkIn[bid], q.blkOut[bid], q.blkExit[bid]
	}
	q.stats.Misses++
	q.stats.BlockBuilds++
	in = q.setPool.Get(q.nv)
	out = q.setPool.Get(q.nv)
	exit = q.setPool.Get(q.nv)
	q.blkIn[bid], q.blkOut[bid], q.blkExit[bid] = in, out, exit
	q.blkDone[bid] = true
	if !q.reach[bid] {
		return in, out, exit
	}
	add := func(id int32) {
		w := q.walkIn(q.walkOf(int(id)))
		if bitHas(w, bid) {
			in.Add(int(id))
		}
		if q.walkOutHas(w, bid) {
			out.Add(int(id))
			exit.Add(int(id))
		} else if hasBlk(q.cur.phiOf(int(id)), int32(bid)) {
			exit.Add(int(id))
		}
	}
	for blk := b; blk != nil; blk = q.dom.Idom[blk.ID] {
		for _, id := range q.strictDefsOf(int(blk.ID)) {
			add(id)
		}
	}
	for _, id := range q.nonStrict {
		add(id)
	}
	return in, out, exit
}
