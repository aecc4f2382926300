// Package coalesce implements the paper's contribution: pinning-based
// register coalescing during the out-of-SSA translation (§3, Algorithms
// 1-3). For every confluence point, an affinity graph over resources is
// built from the φ instructions, pruned so that no two resources of a
// connected component interfere, and each surviving component is merged
// into a single resource by variable pinning. The subsequent
// out-of-pinned-SSA phase (package leung) then emits no move for any φ
// operand pinned to its φ's resource.
//
// The exact problem is NP-complete (the paper's companion report), so
// pruning is the greedy weight heuristic of BipartiteGraph_pruning:
// edges whose endpoints have many interfering neighbours are deleted
// first. Merging re-checks interference incrementally, guaranteeing that
// no new interference is ever created (the paper's Condition 2) even
// when the weight heuristic under-approximates long-range conflicts.
package coalesce

import (
	"sort"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/pin"
)

// Options selects the algorithm variant (paper Table 5).
type Options struct {
	// Mode is the interference precision: Exact for the base algorithm,
	// Optimistic/Pessimistic for the Algorithm 4 variants.
	Mode interference.Mode
	// DepthConstraint enables the Algorithm 3 variant: affinity edges are
	// grouped by the loop depth of the argument's definition and merged
	// in decreasing depth order, prioritizing the moves that would land
	// in the deepest loops.
	DepthConstraint bool
}

// Stats describes a coalescing run.
type Stats struct {
	// Gain is the total paper gain: φ argument slots pinned to the same
	// resource as their φ result.
	Gain int
	// PhiSlots is the total number of φ argument slots (gain upper bound).
	PhiSlots int
	// EdgesBuilt counts affinity edges created across all confluence
	// graphs; EdgesInterfering those removed by the initial pruning,
	// EdgesPruned those removed by the weighted greedy pruning, and
	// EdgesDeferred those skipped at merge time by the incremental
	// interference recheck.
	EdgesBuilt       int
	EdgesInterfering int
	EdgesPruned      int
	EdgesDeferred    int
	// Merges is the number of resource unions performed.
	Merges int
	// Interference snapshots the analysis query counters accumulated by
	// the pass (the tracer's view into the hot path).
	Interference interference.Counters
}

// AppendCounters appends the statistics to dst as trace counters, in
// field order.
func (s *Stats) AppendCounters(dst []obs.Counter) []obs.Counter {
	dst = append(dst,
		obs.Counter{Name: "Gain", Value: int64(s.Gain)},
		obs.Counter{Name: "PhiSlots", Value: int64(s.PhiSlots)},
		obs.Counter{Name: "EdgesBuilt", Value: int64(s.EdgesBuilt)},
		obs.Counter{Name: "EdgesInterfering", Value: int64(s.EdgesInterfering)},
		obs.Counter{Name: "EdgesPruned", Value: int64(s.EdgesPruned)},
		obs.Counter{Name: "EdgesDeferred", Value: int64(s.EdgesDeferred)},
		obs.Counter{Name: "Merges", Value: int64(s.Merges)})
	return s.Interference.AppendCounters(dst)
}

// ProgramPinning runs the paper's Algorithm 1 on f (pinned SSA form): an
// inner-to-outer traversal of the confluence points, coalescing the φ
// resources of each block. Definition pins are rewritten to the merged
// representatives (pin.RepinDefs), ready for the out-of-pinned-SSA phase.
func ProgramPinning(f *ir.Func, opt Options) (*Stats, error) {
	// The translator splits critical edges anyway; doing it first makes
	// the liveness this phase reasons about identical to the liveness the
	// translator will see.
	cfg.SplitCriticalEdges(f)
	cfg.ComputeLoopDepth(f)

	res, err := pin.NewResources(f)
	if err != nil {
		return nil, err
	}
	live := analysis.Liveness(f)
	dom := analysis.Dominators(f)
	an := interference.New(f, live, dom, opt.Mode)
	rg := interference.NewResourceGraph(an, res)

	st := &Stats{}

	// Inner-to-outer traversal: blocks ordered by decreasing loop depth
	// (ties broken by block ID for determinism).
	blocks := append([]*ir.Block(nil), f.Blocks()...)
	sort.SliceStable(blocks, func(i, j int) bool {
		if blocks[i].LoopDepth != blocks[j].LoopDepth {
			return blocks[i].LoopDepth > blocks[j].LoopDepth
		}
		return blocks[i].ID < blocks[j].ID
	})

	if opt.DepthConstraint {
		maxDepth := 0
		for _, b := range f.Blocks() {
			if b.LoopDepth > maxDepth {
				maxDepth = b.LoopDepth
			}
		}
		for d := maxDepth; d >= 0; d-- {
			for _, b := range blocks {
				if b.NumPhis() == 0 {
					continue
				}
				g := createAffinityGraph(b, res, rg, an, d)
				st.EdgesBuilt += len(g.edges)
				pinBlock(g, res, rg, st)
			}
		}
	} else {
		for _, b := range blocks {
			if b.NumPhis() == 0 {
				continue
			}
			g := createAffinityGraph(b, res, rg, an, -1)
			st.EdgesBuilt += len(g.edges)
			pinBlock(g, res, rg, st)
		}
	}

	// Residual sweep: the weight heuristic deletes affinity edges that can
	// turn out to be safely mergeable once the rest of the graph has been
	// decided (pruning is per-block and pessimistic about neighbours).
	// Re-attempt every uncoalesced φ slot, deepest blocks first, until no
	// merge succeeds; each union removes at least one move and the
	// incremental interference check keeps Condition 2 intact.
	for {
		merged := false
		for _, b := range blocks {
			for _, phi := range b.Phis() {
				x := res.Find(phi.Def(0))
				for _, u := range phi.Uses() {
					if rg.KilledSet(u.Val).Has(int(u.Val)) {
						continue // repaired argument: nothing to gain
					}
					a := res.Find(u.Val)
					if a == x || rg.Interfere(a, x) {
						continue
					}
					if _, err := res.Union(a, x); err != nil {
						continue
					}
					x = res.Find(phi.Def(0))
					st.Merges++
					merged = true
				}
			}
		}
		if !merged {
			break
		}
	}

	// Materialize the final classes as definition pins, once (§3.5).
	pin.RepinDefs(f, res)

	// Final gain accounting: a slot only saves its move when the argument
	// shares the φ's resource AND still reaches the φ point in it (not
	// through a repair variable).
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			x := res.Find(phi.Def(0))
			for _, u := range phi.Uses() {
				st.PhiSlots++
				if res.Find(u.Val) == x && !rg.KilledSet(x).Has(int(u.Val)) {
					st.Gain++
				}
			}
		}
	}
	st.Interference = an.Counters()
	return st, nil
}

// graph is the affinity multigraph of one confluence point: vertices are
// resources (represented by their current root), edges carry the copy
// multiplicity between a φ-def resource and a φ-arg resource.
type graph struct {
	verts []ir.ValueID
	edges []*edge
}

type edge struct {
	def, arg ir.ValueID // resource roots at graph construction time
	mult     int
	weight   int
	deleted  bool
}

// createAffinityGraph implements Create_affinity_graph (Algorithms 2-3).
// depth < 0 means no depth constraint; otherwise only arguments whose
// definition lives at the given loop depth contribute edges.
//
// A φ argument already killed within its own resource contributes no
// edge: its value reaches the φ point through a repair variable, so the
// replacement move is emitted regardless of pinning — coalescing such a
// slot has zero gain and would only import the argument's conflicts into
// the φ's class (this refinement keeps e.g. a φ over two call results
// from being dragged into R0's class for nothing).
func createAffinityGraph(b *ir.Block, res *pin.Resources, rg *interference.ResourceGraph, an *interference.Analysis, depth int) *graph {
	g := &graph{}
	seen := make(map[ir.ValueID]bool)
	addVert := func(v ir.ValueID) ir.ValueID {
		r := res.Find(v)
		if !seen[r] {
			seen[r] = true
			g.verts = append(g.verts, r)
		}
		return r
	}
	findEdge := func(d, a ir.ValueID) *edge {
		for _, e := range g.edges {
			if e.def == d && e.arg == a {
				return e
			}
		}
		return nil
	}
	// Resource_killed sets are memoized inside the graph (generation-
	// keyed), so repeated probes per root cost a map hit.
	isKilled := func(v ir.ValueID) bool {
		return rg.KilledSet(v).Has(int(v))
	}
	for _, phi := range b.Phis() {
		rX := addVert(phi.Def(0))
		for _, u := range phi.Uses() {
			if depth >= 0 {
				def := an.Def(u.Val)
				if def == nil || def.Block().LoopDepth != depth {
					continue
				}
			}
			if isKilled(u.Val) {
				continue // repair move is unavoidable: no gain possible
			}
			rx := addVert(u.Val)
			if rx == rX {
				continue // already coalesced
			}
			e := findEdge(rX, rx)
			if e == nil {
				e = &edge{def: rX, arg: rx}
				g.edges = append(g.edges, e)
			}
			e.mult++
		}
	}
	return g
}

// pinBlock prunes the graph (Graph_InitialPruning + BipartiteGraph_
// pruning) and merges the surviving connected components
// (PrunedGraph_pinning), re-checking interference before each union.
func pinBlock(g *graph, res *pin.Resources, rg *interference.ResourceGraph, st *Stats) {
	// Initial pruning: drop edges whose endpoints interfere.
	for _, e := range g.edges {
		if rg.Interfere(e.def, e.arg) {
			e.deleted = true
			st.EdgesInterfering++
		}
	}

	// Weight evaluation: for every pair of live edges sharing a vertex,
	// an endpoint interfering with the pair's other endpoint adds the
	// sibling's multiplicity.
	liveEdges := func() []*edge {
		var out []*edge
		for _, e := range g.edges {
			if !e.deleted {
				out = append(out, e)
			}
		}
		return out
	}
	edges := liveEdges()
	for _, e := range edges {
		e.weight = 0
	}
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			e1, e2 := edges[i], edges[j]
			var common, o1, o2 ir.ValueID
			switch {
			case e1.def == e2.def:
				common, o1, o2 = e1.def, e1.arg, e2.arg
			case e1.arg == e2.arg:
				common, o1, o2 = e1.arg, e1.def, e2.def
			case e1.def == e2.arg:
				common, o1, o2 = e1.def, e1.arg, e2.def
			case e1.arg == e2.def:
				common, o1, o2 = e1.arg, e1.def, e2.arg
			default:
				continue
			}
			_ = common
			if o1 != o2 && rg.Interfere(o1, o2) {
				e1.weight += e2.mult
				e2.weight += e1.mult
			}
		}
	}

	// Greedy pruning in decreasing weight order, updating neighbours.
	for {
		var ep *edge
		for _, e := range edges {
			if e.deleted || e.weight <= 0 {
				continue
			}
			if ep == nil || e.weight > ep.weight {
				ep = e
			}
		}
		if ep == nil {
			break
		}
		ep.deleted = true
		st.EdgesPruned++
		for _, e := range edges {
			if e.deleted {
				continue
			}
			if e.def == ep.def || e.arg == ep.def || e.def == ep.arg || e.arg == ep.arg {
				e.weight -= ep.mult
			}
		}
	}

	// Merge the surviving edges, largest multiplicity first; the
	// incremental recheck guarantees Condition 2 against long-range
	// interferences the weights cannot see.
	remaining := liveEdges()
	f := res.Func()
	isPhysEdge := func(e *edge) bool {
		return f.IsPhys(res.Find(e.def)) || f.IsPhys(res.Find(e.arg))
	}
	sort.SliceStable(remaining, func(i, j int) bool {
		// Virtual-virtual merges first: joining a dedicated register's
		// class is maximally constraining (every later candidate must
		// tolerate all of the register's occupancies), so those edges go
		// last at equal multiplicity.
		pi, pj := isPhysEdge(remaining[i]), isPhysEdge(remaining[j])
		if pi != pj {
			return !pi
		}
		if remaining[i].mult != remaining[j].mult {
			return remaining[i].mult > remaining[j].mult
		}
		if remaining[i].def != remaining[j].def {
			return remaining[i].def < remaining[j].def
		}
		return remaining[i].arg < remaining[j].arg
	})
	for _, e := range remaining {
		a, b := res.Find(e.def), res.Find(e.arg)
		if a == b {
			continue
		}
		if rg.Interfere(a, b) {
			st.EdgesDeferred++
			continue
		}
		if _, err := res.Union(a, b); err != nil {
			// Two physical resources — interference should have caught
			// this; treat as a deferred edge.
			st.EdgesDeferred++
			continue
		}
		st.Merges++
	}
}
