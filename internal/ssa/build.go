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
	"strings"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
)

// Info describes the SSA form produced by Build.
type Info struct {
	fn *ir.Func
	// OrigOf[v] is the pre-SSA value the SSA value v renames, for every
	// value Build left behind; a value that existed before Build and was
	// never renamed maps to itself. Values created after Build have no
	// entry.
	OrigOf []ir.ValueID
	// Dom is the dominator tree of the (unchanged) CFG.
	Dom *cfg.DomTree
}

// EmptyInfo returns an Info with no renaming history, for code built
// directly in SSA form (hand-written tests, figure reproductions).
func EmptyInfo() *Info { return &Info{} }

// OrigPhys returns the dedicated physical register v renames, or
// NoValue.
func (i *Info) OrigPhys(v ir.ValueID) ir.ValueID {
	if v >= 0 && int(v) < len(i.OrigOf) && i.fn.IsPhys(i.OrigOf[v]) {
		return i.OrigOf[v]
	}
	return ir.NoValue
}

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
//
// Apart from the liveness and dominators it requests, Build allocates
// its tables once per call, sized from the function; the fresh values'
// names are cut from one growing buffer.
func Build(f *ir.Func) (*Info, error) {
	cfg.RemoveUnreachable(f)
	ensureEntryDefs(f)

	dom := analysis.Dominators(f)
	df := cfg.DominanceFrontiers(f, dom)
	live := analysis.Liveness(f)

	b := newBuilder(f, dom)
	b.placePhis(df, live)
	b.prepareRenaming()
	if err := b.rename(f.Entry()); err != nil {
		return nil, err
	}
	return &Info{fn: f, OrigOf: b.origOf, Dom: dom}, nil
}

// builder holds the tables of one Build call. The int32 ones are carved
// from one slab: per value (nv, the values before renaming, which every
// renamed variable is among), per block, and per def site.
type builder struct {
	f   *ir.Func
	dom *cfg.DomTree
	nv  int

	// Def sites in CSR form: the blocks defining v, one entry per def in
	// layout order, are blk[start[v]:start[v+1]]. order lists the
	// defined variables by first def, the order φs are placed in.
	start, blk, order []int32
	// placed[b] and onWork[b] hold 1 + the order index of the last
	// variable that considered b for a φ and pushed b on work.
	placed, onWork, work []int32
	// firstPhi is the first instruction slot placement allocated: an
	// instruction at or above it is a φ Build placed.
	firstPhi ir.InstrID
	phiDef   [1]ir.Operand
	phiUses  []ir.Operand

	// ver[v] counts v's φs during placement, then v's versions during
	// the walk. top[v] indexes v's current version in stack, or is -1.
	ver, top []int32
	stack    []version
	origOf   []ir.ValueID
	// names holds every fresh name "v.k" made so far; each new value's
	// name is cut from it. Written bytes never change, so a name stays
	// valid when names grows.
	names strings.Builder
}

// version is one entry of the renaming stack: a fresh value, the
// variable it renames, and that variable's previous top.
type version struct {
	val, orig ir.ValueID
	prev      int32
}

// newBuilder sizes the tables and fills the def sites.
func newBuilder(f *ir.Func, dom *cfg.DomTree) *builder {
	ndefs := 0
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			ndefs += in.NumDefs()
		}
	}
	nv, nb := f.NumValues(), f.NumBlocks()
	slab := make([]int32, (nv+2)+nv+ndefs+3*nb+2*nv)
	cut := func(n int) []int32 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	bd := &builder{f: f, dom: dom, nv: nv,
		start: cut(nv + 2), order: cut(nv)[:0], blk: cut(ndefs),
		placed: cut(nb), onWork: cut(nb), work: cut(nb)[:0],
		ver: cut(nv), top: cut(nv),
	}
	// Count v's defs into start[v+2]: after the prefix sum start[v+1] is
	// where v's blocks begin, and filling advances it to where they end,
	// which is where v+1's begin.
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if bd.start[d.Val+2] == 0 {
					bd.order = append(bd.order, int32(d.Val))
				}
				bd.start[d.Val+2]++
			}
		}
	}
	for i := 2; i < len(bd.start); i++ {
		bd.start[i] += bd.start[i-1]
	}
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				bd.blk[bd.start[d.Val+1]] = int32(b.ID)
				bd.start[d.Val+1]++
			}
		}
	}
	return bd
}

// placePhis is pruned φ placement: the iterated dominance frontier of
// each variable's def sites, filtered by live-in. A block's φs end up in
// the reverse of their placement order.
func (bd *builder) placePhis(df [][]*ir.Block, live *liveness.Info) {
	f := bd.f
	bd.firstPhi = ir.InstrID(f.NumInstrSlots())
	for i, v32 := range bd.order {
		v, stamp := ir.ValueID(v32), int32(i+1)
		for _, b := range bd.blk[bd.start[v]:bd.start[v+1]] {
			if bd.onWork[b] != stamp {
				bd.onWork[b] = stamp
				bd.work = append(bd.work, b)
			}
		}
		for len(bd.work) > 0 {
			b := bd.work[len(bd.work)-1]
			bd.work = bd.work[:len(bd.work)-1]
			for _, fr := range df[b] {
				if bd.placed[fr.ID] == stamp {
					continue
				}
				bd.placed[fr.ID] = stamp
				if !live.LiveIn(v, fr) {
					continue // pruned SSA: dead φ not inserted
				}
				bd.phiDef[0] = ir.Operand{Val: v}
				bd.phiUses = bd.phiUses[:0]
				for range fr.NumPreds() {
					bd.phiUses = append(bd.phiUses, bd.phiDef[0])
				}
				fr.InsertAt(0, f.NewInstr(ir.Phi, bd.phiDef[:], bd.phiUses))
				bd.ver[v]++
				if bd.onWork[fr.ID] != stamp {
					bd.onWork[fr.ID] = stamp
					bd.work = append(bd.work, int32(fr.ID))
				}
			}
		}
	}
}

// prepareRenaming sizes the renaming stack, OrigOf and the names for
// the values the walk will make, and empties every variable's stack.
// Every def is renamed once, since every block is reachable: variable v
// gets as many versions as it has defs and φs.
func (bd *builder) prepareRenaming() {
	nvals, nbytes := 0, 0
	for _, v := range bd.order {
		n := int(bd.start[v+1] - bd.start[v] + bd.ver[v])
		nvals += n
		nbytes += n * (len(bd.f.ValueName(ir.ValueID(v))) + 2) // "v.k" for k < 10
		bd.ver[v] = 0
	}
	bd.names.Grow(nbytes)
	bd.stack = make([]version, 0, nvals)
	bd.origOf = make([]ir.ValueID, bd.nv+nvals)
	for v := range bd.nv {
		bd.origOf[v] = ir.ValueID(v)
		bd.top[v] = -1
	}
}

// fresh makes the next version of orig and pushes it.
func (bd *builder) fresh(orig ir.ValueID) ir.ValueID {
	bd.ver[orig]++
	at := bd.names.Len()
	var digits [10]byte
	bd.names.WriteString(bd.f.ValueName(orig))
	bd.names.WriteByte('.')
	bd.names.Write(strconv.AppendInt(digits[:0], int64(bd.ver[orig]), 10))
	nv := bd.f.NewValue(bd.names.String()[at:])
	bd.origOf[nv] = orig
	bd.stack = append(bd.stack, version{val: nv, orig: orig, prev: bd.top[orig]})
	bd.top[orig] = int32(len(bd.stack) - 1)
	return nv
}

// reaching returns the current version of orig at a use by in, in block
// b.
func (bd *builder) reaching(orig ir.ValueID, b *ir.Block, in *ir.Instr) (ir.ValueID, error) {
	t := bd.top[orig]
	if t < 0 {
		// Use of a never-defined variable on this path; ensureEntryDefs
		// prevents this for any input that passed ir.Func.Verify, so
		// reaching here means the input (or an earlier phase) is broken.
		return ir.NoValue, fmt.Errorf("ssa: %s: block %v: %q: use of %v has no reaching definition",
			bd.f.Name, b, in, bd.f.VStr(orig))
	}
	return bd.stack[t].val, nil
}

// rename is the renaming walk over the dominator subtree of b: uses
// read their variable's current version, defs push a fresh one, the φs
// Build placed in b's successors read theirs for the edge from b, and
// b's versions are popped on the way out.
func (bd *builder) rename(b *ir.Block) error {
	f := bd.f
	mark := len(bd.stack)
	for _, in := range b.Instrs() {
		if in.Op() != ir.Phi {
			for i := 0; i < in.NumUses(); i++ {
				v, err := bd.reaching(in.Use(i), b, in)
				if err != nil {
					return err
				}
				in.SetUseVal(i, v)
			}
		}
		for i := 0; i < in.NumDefs(); i++ {
			in.SetDefVal(i, bd.fresh(in.Def(i)))
		}
	}
	for _, sid := range b.Succs() {
		s := f.Block(sid)
		pi := s.PredIndex(b.ID)
		for _, phi := range s.Phis() {
			if phi.ID() < bd.firstPhi {
				continue // pre-existing φ (input already SSA) — leave it
			}
			// The φ's def is its variable or, once s was walked, a version
			// of it.
			v, err := bd.reaching(bd.origOf[phi.Def(0)], s, phi)
			if err != nil {
				return err
			}
			phi.SetUseVal(pi, v)
		}
	}
	for _, c := range bd.dom.Children[b.ID] {
		if err := bd.rename(c); err != nil {
			return err
		}
	}
	for len(bd.stack) > mark {
		top := bd.stack[len(bd.stack)-1]
		bd.top[top.orig] = top.prev
		bd.stack = bd.stack[:len(bd.stack)-1]
	}
	return nil
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
