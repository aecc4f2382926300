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
	"cmp"
	"slices"

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

// lifting answers the resource-level questions of the pinning phases:
// Resource_killed membership, Resource_interfere, and the merge it
// guards. interference.Table is the engine; the ResourceGraph oracle
// answers the same questions pair by pair.
type lifting interface {
	IsKilled(v ir.ValueID) bool
	Interfere(a, b ir.ValueID) bool
	Merge(a, b ir.ValueID) bool
}

// wrapper replaces the table a pinning phase has built, for its
// analysis and classes, by another lifting: the ResourceGraph oracle,
// or a twin that asks both (CheckDecisions).
type wrapper func(t *interference.Table, an *interference.Analysis, res *pin.Resources) lifting

// liftWith, when set, wraps the table of every pinning phase. Only the
// package's tests set it (export_test.go).
var liftWith wrapper

// newLifting builds the table over the classes of the seeds, and hands
// it to wrap when wrap is set.
func newLifting(an *interference.Analysis, res *pin.Resources, seeds []ir.ValueID, wrap wrapper) lifting {
	t := interference.NewTable(an, res, seeds)
	if wrap != nil {
		return wrap(t, an, res)
	}
	return t
}

// ProgramPinning runs the paper's Algorithm 1 on f (pinned SSA form): an
// inner-to-outer traversal of the confluence points, coalescing the φ
// resources of each block. Definition pins are rewritten to the merged
// representatives (pin.RepinDefs), ready for the out-of-pinned-SSA phase.
func ProgramPinning(f *ir.Func, opt Options) (*Stats, error) {
	return programPinning(f, opt, liftWith)
}

func programPinning(f *ir.Func, opt Options, wrap wrapper) (*Stats, error) {
	// The translator splits critical edges anyway; doing it first makes
	// the liveness this phase reasons about identical to the liveness the
	// translator will see.
	cfg.SplitCriticalEdges(f)
	cfg.SetLoopDepth(f, analysis.Dominators(f))

	res, err := pin.NewResources(f)
	if err != nil {
		return nil, err
	}
	live := analysis.Liveness(f)
	dom := analysis.Dominators(f)
	an := interference.New(f, live, dom, opt.Mode)
	// Merges only join the classes of φ results and arguments, so their
	// initial classes are the values every question is about.
	lift := newLifting(an, res, phiValues(f), wrap)

	st := &Stats{}
	g := newGraph(f)

	// Inner-to-outer traversal: blocks ordered by decreasing loop depth
	// (ties broken by block ID for determinism).
	blocks := slices.Clone(f.Blocks())
	slices.SortStableFunc(blocks, func(x, y *ir.Block) int {
		if x.LoopDepth != y.LoopDepth {
			return cmp.Compare(y.LoopDepth, x.LoopDepth)
		}
		return cmp.Compare(x.ID, y.ID)
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
				g.build(b, res, lift, an, d)
				st.EdgesBuilt += len(g.edges)
				g.pin(res, lift, st)
			}
		}
	} else {
		for _, b := range blocks {
			if b.NumPhis() == 0 {
				continue
			}
			g.build(b, res, lift, an, -1)
			st.EdgesBuilt += len(g.edges)
			g.pin(res, lift, st)
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
			for i, n := 0, b.NumPhis(); i < n; i++ {
				phi := b.Instr(i)
				x := res.Find(phi.Def(0))
				for _, u := range phi.Uses() {
					if lift.IsKilled(u.Val) {
						continue // repaired argument: nothing to gain
					}
					a := res.Find(u.Val)
					if a == x || !lift.Merge(a, x) {
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
		for i, n := 0, b.NumPhis(); i < n; i++ {
			phi := b.Instr(i)
			x := res.Find(phi.Def(0))
			for _, u := range phi.Uses() {
				st.PhiSlots++
				if res.Find(u.Val) == x && !lift.IsKilled(u.Val) {
					st.Gain++
				}
			}
		}
	}
	st.Interference = an.Counters()
	return st, nil
}

// phiValues returns every φ result and argument of f.
func phiValues(f *ir.Func) []ir.ValueID {
	n := 0
	for _, b := range f.Blocks() {
		for i, np := 0, b.NumPhis(); i < np; i++ {
			n += 1 + b.Instr(i).NumUses()
		}
	}
	vals := make([]ir.ValueID, 0, n)
	for _, b := range f.Blocks() {
		for i, np := 0, b.NumPhis(); i < np; i++ {
			phi := b.Instr(i)
			vals = append(vals, phi.Def(0))
			for _, u := range phi.Uses() {
				vals = append(vals, u.Val)
			}
		}
	}
	return vals
}

// graph is the affinity multigraph of one confluence point: edges
// between resources (represented by their root when the graph is built)
// carry the copy multiplicity between a φ-def resource and a φ-arg
// resource. One graph serves every confluence point of a call: build
// resets it, and its edge and index lists keep their storage.
type graph struct {
	edges []edge
	// live and order are index lists into edges: the edges the initial
	// pruning left, and the survivors in merge order.
	live, order []int32
}

// newGraph returns a graph whose lists hold the φ slots of any one
// block of f without growing.
func newGraph(f *ir.Func) *graph {
	slots := 0
	for _, b := range f.Blocks() {
		n := 0
		for i, np := 0, b.NumPhis(); i < np; i++ {
			n += b.Instr(i).NumUses()
		}
		slots = max(slots, n)
	}
	idx := make([]int32, 0, 2*slots)
	return &graph{edges: make([]edge, 0, slots), live: idx[:0:slots], order: idx[slots:slots]}
}

type edge struct {
	def, arg ir.ValueID // resource roots at graph construction time
	mult     int
	weight   int
	deleted  bool
}

// build implements Create_affinity_graph (Algorithms 2-3) for block b.
// depth < 0 means no depth constraint; otherwise only arguments whose
// definition lives at the given loop depth contribute edges.
//
// A φ argument already killed within its own resource contributes no
// edge: its value reaches the φ point through a repair variable, so the
// replacement move is emitted regardless of pinning — coalescing such a
// slot has zero gain and would only import the argument's conflicts into
// the φ's class (this refinement keeps e.g. a φ over two call results
// from being dragged into R0's class for nothing).
func (g *graph) build(b *ir.Block, res *pin.Resources, lift lifting, an *interference.Analysis, depth int) {
	g.edges = g.edges[:0]
	for i, n := 0, b.NumPhis(); i < n; i++ {
		phi := b.Instr(i)
		rX := res.Find(phi.Def(0))
		for _, u := range phi.Uses() {
			if depth >= 0 {
				def := an.Def(u.Val)
				if def == nil || def.Block().LoopDepth != depth {
					continue
				}
			}
			if lift.IsKilled(u.Val) {
				continue // repair move is unavoidable: no gain possible
			}
			rx := res.Find(u.Val)
			if rx == rX {
				continue // already coalesced
			}
			i := slices.IndexFunc(g.edges, func(e edge) bool { return e.def == rX && e.arg == rx })
			if i < 0 {
				i = len(g.edges)
				g.edges = append(g.edges, edge{def: rX, arg: rx})
			}
			g.edges[i].mult++
		}
	}
}

// pin prunes the graph (Graph_InitialPruning + BipartiteGraph_pruning)
// and merges the surviving connected components (PrunedGraph_pinning),
// re-checking interference before each union.
func (g *graph) pin(res *pin.Resources, lift lifting, st *Stats) {
	// Initial pruning: drop edges whose endpoints interfere.
	g.live = g.live[:0]
	for i := range g.edges {
		e := &g.edges[i]
		if lift.Interfere(e.def, e.arg) {
			e.deleted = true
			st.EdgesInterfering++
		} else {
			g.live = append(g.live, int32(i))
		}
	}

	// Weight evaluation: for every pair of live edges sharing a vertex,
	// an endpoint interfering with the pair's other endpoint adds the
	// sibling's multiplicity.
	for i, ei := range g.live {
		e1 := &g.edges[ei]
		for _, ej := range g.live[i+1:] {
			e2 := &g.edges[ej]
			var o1, o2 ir.ValueID
			switch {
			case e1.def == e2.def:
				o1, o2 = e1.arg, e2.arg
			case e1.arg == e2.arg:
				o1, o2 = e1.def, e2.def
			case e1.def == e2.arg:
				o1, o2 = e1.arg, e2.def
			case e1.arg == e2.def:
				o1, o2 = e1.def, e2.arg
			default:
				continue
			}
			if o1 != o2 && lift.Interfere(o1, o2) {
				e1.weight += e2.mult
				e2.weight += e1.mult
			}
		}
	}

	// Greedy pruning in decreasing weight order, updating neighbours.
	for {
		var ep *edge
		for _, i := range g.live {
			e := &g.edges[i]
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
		for _, i := range g.live {
			e := &g.edges[i]
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
	g.order = g.order[:0]
	for _, i := range g.live {
		if !g.edges[i].deleted {
			g.order = append(g.order, i)
		}
	}
	f := res.Func()
	isPhysEdge := func(e *edge) bool {
		return f.IsPhys(res.Find(e.def)) || f.IsPhys(res.Find(e.arg))
	}
	slices.SortStableFunc(g.order, func(i, j int32) int {
		x, y := &g.edges[i], &g.edges[j]
		// Virtual-virtual merges first: joining a dedicated register's
		// class is maximally constraining (every later candidate must
		// tolerate all of the register's occupancies), so those edges go
		// last at equal multiplicity.
		if px, py := isPhysEdge(x), isPhysEdge(y); px != py {
			if px {
				return 1
			}
			return -1
		}
		if x.mult != y.mult {
			return cmp.Compare(y.mult, x.mult)
		}
		if x.def != y.def {
			return cmp.Compare(x.def, y.def)
		}
		return cmp.Compare(x.arg, y.arg)
	})
	for _, i := range g.order {
		e := &g.edges[i]
		a, b := res.Find(e.def), res.Find(e.arg)
		if a == b {
			continue
		}
		if !lift.Merge(a, b) {
			st.EdgesDeferred++
			continue
		}
		st.Merges++
	}
}
