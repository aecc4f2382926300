package interference

import (
	"cmp"
	"slices"
	"sort"

	"outofssa/internal/bitset"
	"outofssa/internal/ir"
	"outofssa/internal/pin"
)

// pairwiseOracle makes NewResourceGraph build graphs that answer every
// query with the pairwise expansion — the direct O(k²) lifting the
// dominance sweep must agree with bit for bit — instead of the sweep.
// Only the package's tests set it (export_test.go).
var pairwiseOracle bool

// ResourceGraph lifts variable interference to resources (§3.3). It
// consults pin.Resources for membership, so queries remain correct as
// the coalescer merges classes. Resource-level results are memoized per
// class: the killed marks of a root, and the verdict for a pair of
// roots, stay valid until a Union grows one of those classes
// (pin.Resources.Changed), so merging two other classes evicts nothing,
// and Merge keeps the merged class's marks valid without recomputing
// them. Queries run the dominance-ordered sweep; classes at or below
// sweepCutoff take the pairwise expansion, which is cheaper there.
type ResourceGraph struct {
	An  *Analysis
	Res *pin.Resources

	// pairwise answers every query with the pairwise expansion instead
	// of the dominance sweep (pairwiseOracle); verdicts are identical.
	pairwise bool

	// sites are the pinned-use clobber points of the function (φ uses
	// excluded — those are Class 2), grouped by pinned value: the sites
	// pinned to value v are sites[siteOff[v]:siteOff[v+1]], so a class
	// finds its sites through its members.
	sites   []PinSite
	siteOff []int32

	// killed holds the Resource_killed marks of every value whose class
	// has been computed. killedAt[root] is one more than the generation
	// at which root's marks were made valid (0: never); they stay valid
	// while Res.Changed(root) is below it. A recompute clears and
	// re-marks only the class's own members.
	killed        *bitset.Set
	killedAt      []uint64
	interfereMemo map[[2]ir.ValueID]interfereEntry

	// Sweep scratch, recycled across queries: defPoint structs, the
	// point-slice headers, and the dominance-chain stack. The sweeps run
	// once per class change but the coalescer's probe loop makes that
	// tens of thousands of times per function, so their steady-state
	// allocation rate has to be zero.
	ptFree  []*defPoint
	bufFree [][]*defPoint
	stack   []*defPoint
}

type interfereEntry struct {
	gen     uint64
	verdict bool
}

// NewResourceGraph pairs an analysis with resource classes and collects
// the pinned-use clobber sites.
func NewResourceGraph(an *Analysis, res *pin.Resources) *ResourceGraph {
	nv := an.fn.NumValues()
	g := &ResourceGraph{
		An:            an,
		Res:           res,
		pairwise:      pairwiseOracle,
		siteOff:       make([]int32, nv+1),
		killed:        bitset.New(nv),
		killedAt:      make([]uint64, nv),
		interfereMemo: make(map[[2]ir.ValueID]interfereEntry),
	}
	for _, b := range an.fn.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.Phi {
				continue
			}
			for _, u := range in.Uses() {
				if u.Pinned() {
					g.sites = append(g.sites, PinSite{Pin: u.Pin(), Val: u.Val, In: in})
				}
			}
		}
	}
	slices.SortStableFunc(g.sites, func(x, y PinSite) int { return cmp.Compare(x.Pin, y.Pin) })
	for _, s := range g.sites {
		g.siteOff[s.Pin+1]++
	}
	for v := 1; v <= nv; v++ {
		g.siteOff[v] += g.siteOff[v-1]
	}
	return g
}

// sitesOf returns the pin sites whose pinned value is v.
func (g *ResourceGraph) sitesOf(v ir.ValueID) []PinSite {
	return g.sites[g.siteOff[v]:g.siteOff[v+1]]
}

// IsKilled implements membership in Resource_killed: whether v is
// killed within its resource by some other member (or by itself, for
// the lost-copy case), or by a pinned use writing the resource while v
// is live.
func (g *ResourceGraph) IsKilled(v ir.ValueID) bool {
	g.ensureKilled(g.Res.Find(v))
	return g.killed.Has(int(v))
}

// ensureKilled makes root's killed marks valid, recomputing them unless
// no Union has grown the class since they were last computed.
func (g *ResourceGraph) ensureKilled(root ir.ValueID) {
	g.An.c.ResourceKilled++
	if g.Res.Changed(root) < g.killedAt[root] {
		g.An.c.KilledMemoHits++
		return
	}
	members := g.Res.Members(root)
	for _, m := range members {
		g.killed.Remove(int(m))
	}
	if g.pairwise {
		g.killedPairwise(members)
	} else {
		g.killedSweep(members)
	}
	g.killedAt[root] = g.Res.Gen() + 1
}

// Interfere implements Resource_interfere(A, B): merging the two
// resources would create a new simple interference (a repair not already
// needed) or a strong interference (incorrect code).
func (g *ResourceGraph) Interfere(a, b ir.ValueID) bool {
	g.An.c.ResourceInterfere++
	ra, rb := g.Res.Find(a), g.Res.Find(b)
	if ra == rb {
		return false
	}
	if g.An.fn.IsPhys(ra) && g.An.fn.IsPhys(rb) {
		return true // distinct dedicated registers
	}
	key := [2]ir.ValueID{ra, rb}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	if e, ok := g.interfereMemo[key]; ok && g.Res.Changed(ra) <= e.gen && g.Res.Changed(rb) <= e.gen {
		g.An.c.InterfereMemoHits++
		return e.verdict
	}
	g.ensureKilled(ra)
	g.ensureKilled(rb)
	ma, mb := g.Res.Members(ra), g.Res.Members(rb)
	var v bool
	if g.pairwise {
		v = g.interferePairwise(ma, mb)
	} else {
		v = g.interfereSweep(ma, mb)
	}
	g.interfereMemo[key] = interfereEntry{gen: g.Res.Gen(), verdict: v}
	return v
}

// Merge unions the resources of a and b unless Interfere(a, b) reports
// that doing so would create a new interference, and reports whether
// they now share a resource.
//
// The merged class's killed marks stay valid without a recompute:
// Interfere is false only when no member left unkilled in its own class
// is killed by a member or a pin site of the other, so the merge kills
// nothing new and every kill within either half persists —
// Resource_killed(A∪B) = Resource_killed(A) ∪ Resource_killed(B), and
// both halves' marks are valid once Interfere has answered.
func (g *ResourceGraph) Merge(a, b ir.ValueID) bool {
	if g.Interfere(a, b) {
		return false
	}
	ra, rb := g.Res.Find(a), g.Res.Find(b)
	if ra == rb {
		return true
	}
	root, err := g.Res.Union(ra, rb)
	if err != nil {
		// Two physical roots: Interfere answered true above.
		panic("interference: Merge: " + err.Error())
	}
	g.killedAt[root] = g.Res.Gen() + 1
	return true
}

// ---------------------------------------------------------------------
// Pairwise engine: the direct O(k²) expansion of the paper's lifting.

// killedPairwise marks the killed members of a class whose marks have
// just been cleared.
func (g *ResourceGraph) killedPairwise(members []ir.ValueID) {
	f := g.An.fn
	killed := g.killed
	for _, ai := range members {
		if f.IsPhys(ai) {
			continue
		}
		for _, aj := range members {
			if f.IsPhys(aj) {
				continue
			}
			if g.An.Kills(aj, ai) {
				killed.Add(int(ai))
				break
			}
		}
	}
	g.siteKills(members)
}

// siteKills marks the members, virtual and not yet marked, that a site
// pinned to the class clobbers: a use pinned to the resource writes it
// just before its instruction, killing members live across that point.
func (g *ResourceGraph) siteKills(members []ir.ValueID) {
	f := g.An.fn
	for _, p := range members {
		for _, site := range g.sitesOf(p) {
			for _, m := range members {
				if f.IsPhys(m) || g.killed.Has(int(m)) {
					continue
				}
				if site.kills(g.An, m) {
					g.killed.Add(int(m))
				}
			}
		}
	}
}

// interferePairwise answers Interfere for two distinct classes whose
// killed marks are valid.
func (g *ResourceGraph) interferePairwise(ma, mb []ir.ValueID) bool {
	f := g.An.fn
	killed := g.killed
	for _, x := range ma {
		if f.IsPhys(x) {
			continue
		}
		for _, y := range mb {
			if f.IsPhys(y) {
				continue
			}
			if !killed.Has(int(x)) && g.An.Kills(y, x) {
				return true
			}
			if !killed.Has(int(y)) && g.An.Kills(x, y) {
				return true
			}
			if g.An.StronglyInterfere(x, y) {
				return true
			}
		}
	}
	// A pinned use writing one resource kills live members of the other
	// once merged.
	return g.siteClobbers(ma, mb) || g.siteClobbers(mb, ma)
}

// siteClobbers reports whether a site pinned to one of pinned's values
// clobbers a virtual member of victims that its own class leaves
// unkilled.
func (g *ResourceGraph) siteClobbers(pinned, victims []ir.ValueID) bool {
	f := g.An.fn
	for _, p := range pinned {
		for _, site := range g.sitesOf(p) {
			for _, m := range victims {
				if f.IsPhys(m) || g.killed.Has(int(m)) {
					continue
				}
				if site.kills(g.An, m) {
					return true
				}
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Dominance engine.
//
// In strict SSA a value live at a program point has its definition
// dominating that point, so every Class-1 kill pair within a class is an
// ancestor/descendant pair among the members' definition points in the
// dominator tree (the descendant's definition clobbers the still-live
// ancestor). Sorting the definition points in dominator-tree preorder
// and sweeping a stack of the current dominance chain therefore
// enumerates exactly the pairs the pairwise expansion tests positive
// dominance for — and the liveness half of the test depends only on the
// killer's definition *point*, not on which member defined there, so it
// runs once per (point, ancestor) instead of once per member pair.

// defPoint is one program point defining members of a class: a non-φ
// instruction (idxKey = its index) or the φ prefix of a block
// (idxKey = -1; φ defs act in parallel at block entry). region is -1
// for blocks reachable from the entry and the block ID otherwise:
// unreachable blocks have no preorder interval, but dominance within
// such a block is still instruction order, so each one sweeps as its
// own chain (cross-block dominance involving an unreachable block is
// always false, matching instrDominates).
type defPoint struct {
	region int
	pre    int // dominator-tree preorder of the block
	idxKey int
	block  *ir.Block
	def    *ir.Instr // representative def (any φ of the block for idxKey -1)
	side   int       // 0/1 during Interfere merges; 0 for Killed
	vals   []ir.ValueID
}

// covers reports whether a definition at point p strictly dominates a
// definition at a later (in sweep order) distinct point q — exactly
// instrDominates lifted to points.
func (g *ResourceGraph) covers(p, q *defPoint) bool {
	if p.block != q.block {
		return p.region == -1 && q.region == -1 &&
			g.An.dom.StrictlyDominates(p.block, q.block)
	}
	return p.idxKey < q.idxKey
}

// takePoint returns a recycled defPoint (vals emptied, member capacity
// retained) or a fresh one when the free list is dry.
func (g *ResourceGraph) takePoint() *defPoint {
	if n := len(g.ptFree); n > 0 {
		p := g.ptFree[n-1]
		g.ptFree = g.ptFree[:n-1]
		p.vals = p.vals[:0]
		return p
	}
	return &defPoint{}
}

// takeBuf returns an empty point slice with recycled capacity.
func (g *ResourceGraph) takeBuf() []*defPoint {
	if n := len(g.bufFree); n > 0 {
		b := g.bufFree[n-1]
		g.bufFree = g.bufFree[:n-1]
		return b[:0]
	}
	return nil
}

// putPoints recycles the points and the slice header for the next query.
func (g *ResourceGraph) putPoints(pts []*defPoint) {
	g.ptFree = append(g.ptFree, pts...)
	g.bufFree = append(g.bufFree, pts)
}

// collectPoints groups the def-carrying virtual members of a class by
// definition point, in sweep order. It reports a collision when some
// point already holds members of another side (Interfere passes
// merge=true): members of both classes defined at one point means either
// two results of one instruction (strong interference) or two φs of one
// block (Class 4) — interference either way. The returned slice is valid
// either way and must be recycled with putPoints.
func (g *ResourceGraph) collectPoints(pts []*defPoint, members []ir.ValueID, side int, merge bool) ([]*defPoint, bool) {
	an := g.An
	for _, m := range members {
		if an.fn.IsPhys(m) {
			continue
		}
		def := an.Def(m)
		if def == nil {
			continue
		}
		b := def.Block()
		idxKey := an.defIndex(m)
		if def.Op() == ir.Phi {
			idxKey = -1
		}
		found := false
		for _, p := range pts {
			if p.block == b && p.idxKey == idxKey {
				if merge && p.side != side {
					return pts, true
				}
				p.vals = append(p.vals, m)
				found = true
				break
			}
		}
		if !found {
			region := -1
			pre := an.dom.PreNum(b)
			if pre < 0 {
				region = int(b.ID)
			}
			p := g.takePoint()
			p.region, p.pre, p.idxKey = region, pre, idxKey
			p.block, p.def, p.side = b, def, side
			p.vals = append(p.vals, m)
			pts = append(pts, p)
		}
	}
	return pts, false
}

func pointLess(a, b *defPoint) bool {
	if a.region != b.region {
		return a.region < b.region
	}
	if a.pre != b.pre {
		return a.pre < b.pre
	}
	return a.idxKey < b.idxKey
}

// sortPoints orders points for the sweep. Classes rarely exceed a few
// dozen definition points, where insertion sort beats the allocation and
// indirection of sort.Slice; large classes fall back to it.
func sortPoints(pts []*defPoint) {
	if len(pts) <= 64 {
		for i := 1; i < len(pts); i++ {
			p := pts[i]
			j := i - 1
			for j >= 0 && pointLess(p, pts[j]) {
				pts[j+1] = pts[j]
				j--
			}
			pts[j+1] = p
		}
		return
	}
	sort.Slice(pts, func(i, j int) bool { return pointLess(pts[i], pts[j]) })
}

// killsAtPoint reports whether a definition at point p Class-1-kills the
// still-earlier-defined victim, replicating the mode switch of Kills
// with defV = p's definition. The test reads only p (every member
// defined at one point shares its live-after set and block), which is
// what lets the sweep run it per point instead of per member pair.
func (an *Analysis) killsAtPoint(p *defPoint, victim ir.ValueID) bool {
	switch an.mode {
	case Exact:
		return an.liveAfterHas(p.def, victim)
	case Optimistic:
		return an.live.LiveOut(victim, p.block)
	default: // Pessimistic
		return an.live.LiveIn(victim, p.block) ||
			an.Def(victim).Block() == p.block
	}
}

// sweepCutoff is the class size (virtual members) at or below which the
// dominance engine answers with the pairwise expansion: at tiny k the
// O(k²) loop over memoized sparse-liveness queries is cheaper than
// mobilizing the sweep (point grouping, chain stack), and
// most classes stay tiny — the sweep earns its keep on the large pinned
// classes (SP ties, ABI chains, late-coalescing merges) where k² bites.
// The crossover was measured with BenchmarkInterferenceQueries; verdicts
// are identical on both sides of the cutoff (engines_test.go holds for
// any value of it).
const sweepCutoff = 8

func virtualCount(f *ir.Func, members []ir.ValueID) int {
	n := 0
	for _, m := range members {
		if !f.IsPhys(m) {
			n++
		}
	}
	return n
}

// killedSweep marks the killed members of a class whose marks have just
// been cleared.
func (g *ResourceGraph) killedSweep(members []ir.ValueID) {
	an := g.An
	f := an.fn
	if virtualCount(f, members) <= sweepCutoff {
		g.killedPairwise(members)
		return
	}
	killed := g.killed

	// Class 2: a φ member's replacement move at the end of predecessor i
	// clobbers every member live out of that predecessor other than the
	// incoming argument (the lost-copy self-kill included). Point queries
	// per member rather than an intersection with the dense live-out set:
	// under the query engine only the members' own walks are consulted.
	for _, m := range members {
		if f.IsPhys(m) {
			continue
		}
		def := an.Def(m)
		if def == nil || def.Op() != ir.Phi {
			continue
		}
		blk := def.Block()
		for i, u := range def.Uses() {
			arg := u.Val
			for _, v := range members {
				if f.IsPhys(v) || v == arg || killed.Has(int(v)) {
					continue
				}
				if an.live.LiveOut(v, blk.Pred(i)) {
					killed.Add(int(v))
				}
			}
		}
	}

	// Class 1: dominance-ordered stack sweep. alive counts stack members
	// not yet killed — once it hits zero the per-point liveness tests are
	// skipped (early exit), though points still push for later groups.
	pts, _ := g.collectPoints(g.takeBuf(), members, 0, false)
	defer func() { g.putPoints(pts) }()
	sortPoints(pts)
	stack := g.stack[:0]
	defer func() { g.stack = stack[:0] }()
	alive := 0
	unkilledOf := func(p *defPoint) int {
		n := 0
		for _, m := range p.vals {
			if !killed.Has(int(m)) {
				n++
			}
		}
		return n
	}
	for _, p := range pts {
		if len(stack) > 0 && stack[0].region != p.region {
			stack, alive = stack[:0], 0
		}
		for len(stack) > 0 && !g.covers(stack[len(stack)-1], p) {
			alive -= unkilledOf(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		if alive > 0 {
			for _, q := range stack {
				for _, victim := range q.vals {
					if killed.Has(int(victim)) {
						continue
					}
					if an.killsAtPoint(p, victim) {
						killed.Add(int(victim))
						alive--
					}
				}
			}
		}
		alive += unkilledOf(p)
		stack = append(stack, p)
	}

	g.siteKills(members)
}

// interfereSweep answers Interfere for two distinct classes whose killed
// marks are valid.
func (g *ResourceGraph) interfereSweep(ma, mb []ir.ValueID) bool {
	an := g.An
	f := an.fn
	// The pairwise cost of Interfere is the PRODUCT of the class sizes
	// (one huge class probed against a singleton is only k queries), so
	// the cutoff is on the product.
	if virtualCount(f, ma)*virtualCount(f, mb) <= sweepCutoff*sweepCutoff {
		return g.interferePairwise(ma, mb)
	}
	// The victim candidates are the virtual members not already killed
	// within their own class (a kill already repaired is not a *new*
	// interference).
	killed := g.killed

	// Shared definition points across the two classes interfere outright
	// (same instruction → strong; same block's φ prefix → Class 4).
	pts, collide := g.collectPoints(g.takeBuf(), ma, 0, true)
	if !collide {
		pts, collide = g.collectPoints(pts, mb, 1, true)
	}
	defer func() { g.putPoints(pts) }()
	if collide {
		return true
	}

	// Class 3: φs of different blocks must agree on arguments flowing
	// from shared predecessors. Only φ×φ cross pairs can trip this (and
	// same-block pairs already returned above), so the pairwise check
	// shrinks to the classes' φ members.
	for _, p := range pts {
		if p.idxKey != -1 || p.side != 0 {
			continue
		}
		for _, q := range pts {
			if q.idxKey != -1 || q.side != 1 {
				continue
			}
			for _, x := range p.vals {
				defX := an.Def(x)
				for _, y := range q.vals {
					defY := an.Def(y)
					for i, u := range defX.Uses() {
						j := defY.Block().PredIndex(defX.Block().Pred(i).ID)
						if j >= 0 && u.Val != defY.Use(j) {
							return true
						}
					}
				}
			}
		}
	}

	// Class 2 across the merge: a φ member of one class clobbering an
	// alive member of the other at a predecessor exit. Point queries per
	// victim keep the query engine on its memoized per-variable walks.
	phiClobbers := func(members, victims []ir.ValueID) bool {
		for _, m := range members {
			if f.IsPhys(m) {
				continue
			}
			def := an.Def(m)
			if def == nil || def.Op() != ir.Phi {
				continue
			}
			blk := def.Block()
			for i, u := range def.Uses() {
				pred := blk.Pred(i)
				for _, v := range victims {
					if f.IsPhys(v) || killed.Has(int(v)) {
						continue
					}
					if v != u.Val && an.live.LiveOut(v, pred) {
						return true
					}
				}
			}
		}
		return false
	}
	if phiClobbers(ma, mb) || phiClobbers(mb, ma) {
		return true
	}

	// Class 1 across the merge: one merged sweep over both classes'
	// definition points; a point kills an alive opposite-side ancestor ⇒
	// the merge creates a new interference.
	sortPoints(pts)
	stack := g.stack[:0]
	defer func() { g.stack = stack[:0] }()
	for _, p := range pts {
		if len(stack) > 0 && stack[0].region != p.region {
			stack = stack[:0]
		}
		for len(stack) > 0 && !g.covers(stack[len(stack)-1], p) {
			stack = stack[:len(stack)-1]
		}
		for _, q := range stack {
			if q.side == p.side {
				continue
			}
			for _, victim := range q.vals {
				if !killed.Has(int(victim)) && an.killsAtPoint(p, victim) {
					return true
				}
			}
		}
		stack = append(stack, p)
	}

	// Pinned-use clobbers across the merge.
	return g.siteClobbers(ma, mb) || g.siteClobbers(mb, ma)
}

// ---------------------------------------------------------------------
// Walk engine: the killed marks of every class at once, for Leung's
// mark phase, which needs them all with the classes fixed. Instead of
// asking a class's members about each other, it decides each kill
// point against the values live there, as Boissinot et al. (CGO 2009)
// decide interference from live sets instead of pairwise queries.

// KilledAll returns the Resource_killed marks of every class of res:
// the set of virtual values that IsKilled of a ResourceGraph over res
// reports, computed from the current classes in one pass. A value is
// marked when
//
//   - a non-φ definition of another member of its class executes while
//     it is live, its own definition strictly dominating that one
//     (Class 1);
//   - a φ of its class is defined at the entry of a block it is live
//     into, its definition strictly dominating the φ's block (Class 1),
//     or it is live out of a predecessor whose φ argument is another
//     value (Class 2; this includes the φ's own result, the lost-copy
//     self-kill);
//   - a use pinned to its resource executes while it is live across the
//     instruction, it being neither the value read there nor a result
//     of the instruction.
//
// Only blocks holding a def into a class with two or more virtual
// members, or a pinned use into a class with a virtual member, are
// walked; φs are answered with point queries over their class. The
// analysis must be in mode Exact, the only mode whose marks it
// computes, and KilledAll allocates none of its live-after tables.
func (an *Analysis) KilledAll(res *pin.Resources) *bitset.Set {
	if an.mode != Exact {
		panic("interference: KilledAll needs an Exact analysis, not " + an.mode.String())
	}
	f := an.fn
	killed := bitset.New(f.NumValues())
	for _, b := range f.Blocks() {
		an.phiKills(b, res, killed)
		if an.hasKillPoint(b, res) {
			an.walkKills(b, res, killed)
		}
	}
	return killed
}

// virtualMembers returns v's class and the number of its virtual
// members. A class holds at most one physical register, its root.
func virtualMembers(f *ir.Func, res *pin.Resources, v ir.ValueID) ([]ir.ValueID, int) {
	root := res.Find(v)
	members := res.Members(root)
	if f.IsPhys(root) {
		return members, len(members) - 1
	}
	return members, len(members)
}

// hasKillPoint reports whether some non-φ instruction of b can kill a
// value: a virtual def into a class with another virtual member, or a
// use pinned to a class with a virtual member.
func (an *Analysis) hasKillPoint(b *ir.Block, res *pin.Resources) bool {
	f := an.fn
	for _, in := range b.Instrs() {
		if in.Op() == ir.Phi {
			continue
		}
		for _, d := range in.Defs() {
			if f.IsPhys(d.Val) {
				continue
			}
			if _, n := virtualMembers(f, res, d.Val); n >= 2 {
				return true
			}
		}
		for _, u := range in.Uses() {
			if !u.Pinned() {
				continue
			}
			if _, n := virtualMembers(f, res, u.Pin()); n >= 1 {
				return true
			}
		}
	}
	return false
}

// walkKills walks b backward from its exit-live set and marks, at each
// non-φ instruction, the values its definitions and pinned uses kill.
func (an *Analysis) walkKills(b *ir.Block, res *pin.Resources, killed *bitset.Set) {
	f := an.fn
	cur := an.laPool.Get(f.NumValues())
	cur.CopyFrom(an.live.ExitLiveSet(b))
	for i := b.NumInstrs() - 1; i >= 0; i-- {
		in := b.Instr(i)
		if in.Op() == ir.Phi {
			break
		}
		// cur is the live-after set of in. Strict dominance leaves out
		// in's own results.
		for _, d := range in.Defs() {
			if f.IsPhys(d.Val) {
				continue
			}
			members, n := virtualMembers(f, res, d.Val)
			if n < 2 {
				continue
			}
			for _, x := range members {
				if f.IsPhys(x) || killed.Has(int(x)) || !cur.Has(int(x)) {
					continue
				}
				if dx := an.Def(x); dx != nil && an.instrDominates(dx, in, an.defIndex(x), i) {
					killed.Add(int(x))
				}
			}
		}
		for _, u := range in.Uses() {
			if !u.Pinned() {
				continue
			}
			members, _ := virtualMembers(f, res, u.Pin())
			for _, m := range members {
				if f.IsPhys(m) || m == u.Val || killed.Has(int(m)) || !cur.Has(int(m)) || in.HasDef(m) {
					continue
				}
				killed.Add(int(m))
			}
		}
		for _, d := range in.Defs() {
			cur.Remove(int(d.Val))
		}
		for _, u := range in.Uses() {
			cur.Add(int(u.Val))
		}
	}
	an.laPool.Put(cur)
}

// phiKills marks the values the φs of b kill, with point queries over
// each φ's class: Class 1 by live-in to b, Class 2 by live-out of each
// predecessor.
func (an *Analysis) phiKills(b *ir.Block, res *pin.Resources, killed *bitset.Set) {
	f := an.fn
	for _, phi := range b.Phis() {
		v := phi.Def(0)
		if f.IsPhys(v) {
			continue
		}
		members, n := virtualMembers(f, res, v)
		if n >= 2 {
			for _, x := range members {
				if x == v || f.IsPhys(x) || killed.Has(int(x)) {
					continue
				}
				dx := an.Def(x)
				if dx != nil && an.instrDominates(dx, phi, an.defIndex(x), an.defIndex(v)) && an.live.LiveIn(x, b) {
					killed.Add(int(x))
				}
			}
		}
		for i, u := range phi.Uses() {
			pred := b.Pred(i)
			for _, x := range members {
				if f.IsPhys(x) || x == u.Val || killed.Has(int(x)) {
					continue
				}
				if an.live.LiveOut(x, pred) {
					killed.Add(int(x))
				}
			}
		}
	}
}
