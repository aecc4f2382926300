package interference

import (
	"math/bits"

	"outofssa/internal/ir"
	"outofssa/internal/pin"
)

// Table answers Resource_killed and Resource_interfere (§3.3) for the
// classes of a fixed set of values, as the pinning phases ask them. It
// numbers densely the members of the classes of the values it is given
// (for Program_pinning, every φ result and argument). Merges only join
// such classes, so the numbered set stays closed under them. For each
// numbered value it then builds three bit rows over the numbered set:
//
//   - killers: the values that kill it (Variable_kills, Classes 1-2,
//     the lost-copy self-kill included);
//   - strong: the values it strongly interferes with (Classes 3-4);
//   - sites: the values whose pinned uses clobber it (a use pinned to a
//     resource writes it just before its instruction, killing the
//     members live across that point).
//
// The rows come from one pass over the blocks: φs are answered from the
// live sets at block entry and predecessor exits, and the other
// instructions by one backward walk per block from its exit-live set,
// as KilledAll walks. Boissinot et al. (CGO 2009) decide interference
// from live sets in the same way instead of by pairwise queries.
//
// Each class keeps a member row, ORed into the survivor on Merge, so
// IsKilled and Interfere are word-wise ANDs of rows with member rows.
// They follow the pairwise lifting of ResourceGraph, the test oracle,
// exactly: a member already killed in its own class does not count, and
// neither do physical registers, except as the target of a pinned use.
// Resource_killed is computed once: Merge joins two classes only when
// neither kills an unkilled member of the other, so the killed members
// of the union are those of its halves.
type Table struct {
	an  *Analysis
	res *pin.Resources

	// num[v] is v's number, or -1 for a value outside the numbered set;
	// vals lists the numbered values in ascending order.
	num  []int32
	vals []ir.ValueID

	// rows holds numRows rows of w words per numbered value (the members
	// row is meaningful at class roots only), killed marks the members
	// killed within their class, virt the virtual ones, and cur is the
	// walks' live set over the numbered values.
	w      int
	rows   []uint64
	killed []uint64
	virt   []uint64
	cur    []uint64
}

const (
	rowKillers = iota
	rowStrong
	rowSites
	rowMembers
	numRows
)

// NewTable numbers the classes of res holding the seeds and builds
// their rows. an must describe res's function as it stands, and the
// function must not change while the table is in use. Only Merge may
// join the classes of res meanwhile.
func NewTable(an *Analysis, res *pin.Resources, seeds []ir.ValueID) *Table {
	f := an.fn
	t := &Table{an: an, res: res, num: make([]int32, f.NumValues())}
	for i := range t.num {
		t.num[i] = -1
	}
	// Mark the seeds' classes with -2, then number them in value order.
	n := 0
	for _, v := range seeds {
		if t.num[v] != -1 {
			continue
		}
		for _, m := range res.Members(v) {
			t.num[m] = -2
			n++
		}
	}
	t.vals = make([]ir.ValueID, 0, n)
	for v, k := range t.num {
		if k == -2 {
			t.num[v] = int32(len(t.vals))
			t.vals = append(t.vals, ir.ValueID(v))
		}
	}
	t.w = (n + 63) / 64
	buf := make([]uint64, (numRows*n+3)*t.w)
	t.rows, buf = buf[:numRows*n*t.w], buf[numRows*n*t.w:]
	t.killed, t.virt, t.cur = buf[:t.w], buf[t.w:2*t.w], buf[2*t.w:]

	for k, v := range t.vals {
		setBit(t.row(t.num[res.Find(v)], rowMembers), k)
		if !f.IsPhys(v) {
			setBit(t.virt, k)
		}
	}
	t.strongRows()
	for _, b := range f.Blocks() {
		t.phiKills(b)
		t.walk(b)
		if an.mode != Exact {
			t.blockKills(b)
		}
	}
	for k, v := range t.vals {
		m := t.row(t.num[res.Find(v)], rowMembers)
		if intersects(t.row(int32(k), rowKillers), m) || intersects(t.row(int32(k), rowSites), m) {
			setBit(t.killed, k)
		}
	}
	return t
}

// row returns one of the rows of the value numbered k.
func (t *Table) row(k int32, kind int) []uint64 {
	o := (int(k)*numRows + kind) * t.w
	return t.rows[o : o+t.w : o+t.w]
}

// number returns v's number; v must be in the numbered set.
func (t *Table) number(v ir.ValueID) int32 {
	k := t.num[v]
	if k < 0 {
		panic("interference: Table asked about " + t.an.fn.VStr(v) + ", outside its numbered classes")
	}
	return k
}

// virtual reports whether the value numbered k can kill or be killed:
// physical registers do neither.
func (t *Table) virtual(k int) bool { return hasBit(t.virt, k) }

// vnum returns v's number when v is numbered and virtual, and -1
// otherwise.
func (t *Table) vnum(v ir.ValueID) int32 {
	if k := t.num[v]; k >= 0 && t.virtual(int(k)) {
		return k
	}
	return -1
}

// IsKilled implements membership in Resource_killed: whether v is
// killed within its resource by some other member (or by itself, for
// the lost-copy case), or by a pinned use writing the resource while v
// is live.
func (t *Table) IsKilled(v ir.ValueID) bool {
	t.an.c.ResourceKilled++
	return hasBit(t.killed, int(t.number(v)))
}

// Interfere implements Resource_interfere(A, B): merging the two
// resources would create a new simple interference (a repair not already
// needed) or a strong interference (incorrect code).
func (t *Table) Interfere(a, b ir.ValueID) bool {
	t.an.c.ResourceInterfere++
	ra, rb := t.res.Find(a), t.res.Find(b)
	if ra == rb {
		return false
	}
	f := t.an.fn
	if f.IsPhys(ra) && f.IsPhys(rb) {
		return true // distinct dedicated registers
	}
	ma, mb := t.row(t.number(ra), rowMembers), t.row(t.number(rb), rowMembers)
	return t.clobbers(ma, mb, true) || t.clobbers(mb, ma, false)
}

// clobbers reports whether a member of the class with member row mb
// kills an unkilled member of the class with member row ma, or whether
// one of its pinned uses does. With strong, it also reports a member of
// ma strongly interfering with one of mb, in the direction the oracle
// asks Variable_stronglyInterfere.
func (t *Table) clobbers(ma, mb []uint64, strong bool) bool {
	for wi, word := range ma {
		for word != 0 {
			k := int32(wi*64 + bits.TrailingZeros64(word))
			word &= word - 1
			if !hasBit(t.killed, int(k)) &&
				(intersects(t.row(k, rowKillers), mb) || intersects(t.row(k, rowSites), mb)) {
				return true
			}
			if strong && intersects(t.row(k, rowStrong), mb) {
				return true
			}
		}
	}
	return false
}

// Merge unions the resources of a and b unless Interfere(a, b) reports
// that doing so would create a new interference, and reports whether
// they now share a resource.
func (t *Table) Merge(a, b ir.ValueID) bool {
	if t.Interfere(a, b) {
		return false
	}
	ra, rb := t.res.Find(a), t.res.Find(b)
	if ra == rb {
		return true
	}
	root, err := t.res.Union(ra, rb)
	if err != nil {
		// Two physical roots: Interfere answered true above.
		panic("interference: Merge: " + err.Error())
	}
	gone := ra
	if root == ra {
		gone = rb
	}
	dst, src := t.row(t.number(root), rowMembers), t.row(t.number(gone), rowMembers)
	for i, w := range src {
		dst[i] |= w
	}
	return true
}

// strongRows fills the strong rows: Variable_stronglyInterfere of the
// two results of one instruction, of two φs of one block, and of two
// φs of blocks sharing a predecessor (DefsStronglyInterfere decides the
// latter two).
func (t *Table) strongRows() {
	f := t.an.fn
	for k, v := range t.vals {
		dv := t.an.Def(v)
		if !t.virtual(k) || dv == nil {
			continue
		}
		row := t.row(int32(k), rowStrong)
		if dv.Op() != ir.Phi {
			for _, d := range dv.Defs() {
				if kd := t.vnum(d.Val); kd >= 0 && d.Val != v {
					setBit(row, int(kd))
				}
			}
			continue
		}
		bv := dv.Block()
		t.strongPhis(row, v, dv, bv)
		for i := 0; i < bv.NumPreds(); i++ {
			for _, s := range bv.Pred(i).Succs() {
				if s != bv.ID {
					t.strongPhis(row, v, dv, f.Block(s))
				}
			}
		}
	}
}

// strongPhis marks in row the φs of b that the φ dv, defining v,
// strongly interferes with.
func (t *Table) strongPhis(row []uint64, v ir.ValueID, dv *ir.Instr, b *ir.Block) {
	for i, n := 0, b.NumPhis(); i < n; i++ {
		phi := b.Instr(i)
		if kw := t.vnum(phi.Def(0)); kw >= 0 && phi.Def(0) != v && DefsStronglyInterfere(dv, phi) {
			setBit(row, int(kw))
		}
	}
}

// phiKills records the kills of b's φs: Class 1, in mode Exact, of the
// values live into b whose definition strictly dominates b, and Class 2
// of the values live out of a predecessor whose φ argument is another
// value (the φ's own result included: the lost-copy self-kill).
func (t *Table) phiKills(b *ir.Block) {
	an := t.an
	np := b.NumPhis()
	if !t.hasKiller(b, 0, np) {
		return
	}
	if an.mode == Exact {
		t.fill(func(v ir.ValueID) bool { return an.live.LiveIn(v, b) })
		for i := 0; i < np; i++ {
			if kw := t.vnum(b.Instr(i).Def(0)); kw >= 0 {
				t.killDominated(kw, b.Instr(i), i)
			}
		}
	}
	for p := 0; p < b.NumPreds(); p++ {
		pred := b.Pred(p)
		t.fill(func(v ir.ValueID) bool { return an.live.LiveOut(v, pred) })
		for i := 0; i < np; i++ {
			phi := b.Instr(i)
			if kw := t.vnum(phi.Def(0)); kw >= 0 {
				arg := phi.Use(p)
				t.mark(rowKillers, kw, func(v ir.ValueID) bool { return v == arg })
			}
		}
	}
}

// walk records the kills at b's other instructions, walking b backward
// from its exit-live set with cur as the numbered virtual values live
// after each instruction: the pinned uses' clobbers in every mode, and
// in mode Exact the Class 1 kills of each definition.
func (t *Table) walk(b *ir.Block) {
	an := t.an
	exact := an.mode == Exact
	np, n := b.NumPhis(), b.NumInstrs()
	if !(exact && t.hasKiller(b, np, n)) && !t.hasSite(b) {
		return
	}
	exit := an.live.ExitLiveSet(b)
	t.fill(func(v ir.ValueID) bool { return exit.Has(int(v)) })
	for i := n - 1; i >= np; i-- {
		in := b.Instr(i)
		if exact {
			for _, d := range in.Defs() {
				if kw := t.vnum(d.Val); kw >= 0 {
					t.killDominated(kw, in, i)
				}
			}
		}
		for _, u := range in.Uses() {
			if u.Pinned() && t.num[u.Pin()] >= 0 {
				t.mark(rowSites, t.num[u.Pin()], func(v ir.ValueID) bool { return v == u.Val || in.HasDef(v) })
			}
		}
		for _, d := range in.Defs() {
			if k := t.num[d.Val]; k >= 0 {
				clearBit(t.cur, int(k))
			}
		}
		for _, u := range in.Uses() {
			if k := t.vnum(u.Val); k >= 0 {
				setBit(t.cur, int(k))
			}
		}
	}
}

// blockKills records the Class 1 kills of Algorithm 4's approximations
// at every definition of b: of the values live out of b (Optimistic),
// or live into b or defined in b (Pessimistic), whose definition
// strictly dominates it.
func (t *Table) blockKills(b *ir.Block) {
	an := t.an
	if !t.hasKiller(b, 0, b.NumInstrs()) {
		return
	}
	if an.mode == Optimistic {
		t.fill(func(v ir.ValueID) bool { return an.live.LiveOut(v, b) })
	} else {
		t.fill(func(v ir.ValueID) bool {
			d := an.Def(v)
			return an.live.LiveIn(v, b) || d != nil && d.Block() == b
		})
	}
	for i := 0; i < b.NumInstrs(); i++ {
		in := b.Instr(i)
		for _, d := range in.Defs() {
			if kw := t.vnum(d.Val); kw >= 0 {
				t.killDominated(kw, in, i)
			}
		}
	}
}

// hasKiller reports whether one of b's instructions lo to hi-1 defines
// a numbered virtual value.
func (t *Table) hasKiller(b *ir.Block, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		for _, d := range b.Instr(i).Defs() {
			if t.vnum(d.Val) >= 0 {
				return true
			}
		}
	}
	return false
}

// hasSite reports whether a non-φ instruction of b pins a use to a
// numbered value.
func (t *Table) hasSite(b *ir.Block) bool {
	for i := b.NumPhis(); i < b.NumInstrs(); i++ {
		for _, u := range b.Instr(i).Uses() {
			if u.Pinned() && t.num[u.Pin()] >= 0 {
				return true
			}
		}
	}
	return false
}

// fill makes cur the numbered virtual values keep reports.
func (t *Table) fill(keep func(v ir.ValueID) bool) {
	clear(t.cur)
	for k, v := range t.vals {
		if t.virtual(k) && keep(v) {
			setBit(t.cur, k)
		}
	}
}

// killDominated records that the value numbered kw, defined by in, the
// i-th instruction of its block, kills every value of cur whose
// definition strictly dominates in (Class 1). That leaves out in's own
// results.
func (t *Table) killDominated(kw int32, in *ir.Instr, i int) {
	an := t.an
	t.mark(rowKillers, kw, func(v ir.ValueID) bool {
		dv := an.Def(v)
		return dv == nil || !an.instrDominates(dv, in, an.defIndex(v), i)
	})
}

// mark sets, in the given row of every value of cur that spare does not
// report, the bit of the value numbered by.
func (t *Table) mark(kind int, by int32, spare func(v ir.ValueID) bool) {
	for wi, word := range t.cur {
		for word != 0 {
			k := wi*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if !spare(t.vals[k]) {
				setBit(t.row(int32(k), kind), int(by))
			}
		}
	}
}

func setBit(row []uint64, k int)      { row[k/64] |= 1 << uint(k%64) }
func clearBit(row []uint64, k int)    { row[k/64] &^= 1 << uint(k%64) }
func hasBit(row []uint64, k int) bool { return row[k/64]&(1<<uint(k%64)) != 0 }

// intersects reports whether two rows share a bit.
func intersects(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}
