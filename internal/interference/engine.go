package interference

import (
	"cmp"
	"slices"

	"outofssa/internal/bitset"
	"outofssa/internal/ir"
	"outofssa/internal/pin"
)

// ResourceGraph lifts variable interference to resources (§3.3). It
// consults pin.Resources for membership, so queries remain correct as
// the coalescer merges classes. Resource-level results are memoized per
// class: the killed marks of a root, and the verdict for a pair of
// roots, stay valid until a Union grows one of those classes
// (pin.Resources.Changed), so merging two other classes evicts nothing,
// and Merge keeps the merged class's marks valid without recomputing
// them. Queries expand a class pair by pair, as §3.3 lifts Variable_kills
// and Variable_stronglyInterfere to resources.
type ResourceGraph struct {
	An  *Analysis
	Res *pin.Resources

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
	g.killedPairwise(members)
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
	v := g.interferePairwise(g.Res.Members(ra), g.Res.Members(rb))
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
// The pairwise expansion of the paper's lifting.

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
