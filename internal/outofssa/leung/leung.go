// Package leung implements the out-of-pinned-SSA translation of Leung
// and George ("Static single assignment form for machine code", PLDI
// 1999) in the formulation used by Rastello, de Ferrière and Guillon
// (CGO 2004): a mark phase that detects variables killed within their
// pinned resource, and a reconstruction phase that renames variables to
// their resources, inserts repair copies after killed definitions,
// enforces use pins with parallel copies, and replaces φ instructions by
// parallel copies at the end of predecessor blocks.
//
// All φ-related and constraint-related copies are emitted as parallel
// copies and then sequentialized, which resolves the swap and lost-copy
// problems of the naive translation.
package leung

import (
	"fmt"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/parcopy"
	"outofssa/internal/pin"
)

// Stats reports what the translation did.
type Stats struct {
	// Repairs is the number of repair copies inserted for killed
	// variables (paper §2.3, Fig. 3: x'3 = R0).
	Repairs int
	// PhiMoves is the number of non-trivial φ-replacement move slots
	// (before sequentialization; cycles may add temps on top).
	PhiMoves int
	// PinMoves is the number of moves inserted to satisfy use pins (ABI
	// argument slots, 2-operand reads).
	PinMoves int
	// EdgesSplit is the number of critical edges split up front.
	EdgesSplit int
	// Killed is the number of variables the mark phase found killed
	// within their resource (repair candidates before the used-filter).
	Killed int
	// Interference snapshots the analysis query counters accumulated by
	// the translation (the tracer's view into the hot path).
	Interference interference.Counters
}

// AppendCounters appends the statistics to dst as trace counters, in
// field order.
func (s *Stats) AppendCounters(dst []obs.Counter) []obs.Counter {
	dst = append(dst,
		obs.Counter{Name: "Repairs", Value: int64(s.Repairs)},
		obs.Counter{Name: "PhiMoves", Value: int64(s.PhiMoves)},
		obs.Counter{Name: "PinMoves", Value: int64(s.PinMoves)},
		obs.Counter{Name: "EdgesSplit", Value: int64(s.EdgesSplit)},
		obs.Counter{Name: "Killed", Value: int64(s.Killed)})
	return s.Interference.AppendCounters(dst)
}

// Translate converts the pinned SSA function f out of SSA form in place.
// Definition pins become the variables' home resources; use pins are
// enforced with copies; killed variables are repaired. The result
// contains no φ and no ParCopy instructions.
func Translate(f *ir.Func) (*Stats, error) {
	st := &Stats{}
	st.EdgesSplit = cfg.SplitCriticalEdges(f)

	res, err := pin.NewResources(f)
	if err != nil {
		return nil, err
	}
	if err := pin.Validate(f, res); err != nil {
		return nil, fmt.Errorf("leung: invalid pinning: %v", err)
	}

	live := analysis.Liveness(f)
	dom := analysis.Dominators(f)
	an := interference.New(f, live, dom, interference.Exact)
	rg := interference.NewResourceGraph(an, res)

	// ---- Mark phase: which variables are killed within their resource?
	killed := make(map[ir.ValueID]bool)
	seenRoot := make(map[ir.ValueID]bool)
	numVals := f.NumValues()
	for id := 0; id < numVals; id++ {
		v := ir.ValueID(id)
		if f.IsPhys(v) {
			continue
		}
		root := res.Find(v)
		if seenRoot[root] {
			continue
		}
		seenRoot[root] = true
		rg.KilledSet(root).ForEach(func(id int) { killed[ir.ValueID(id)] = true })
	}

	// Only killed variables with at least one use need a repair variable.
	used := make(map[ir.ValueID]bool)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, u := range in.Uses() {
				used[u.Val] = true
			}
		}
	}
	repair := make(map[ir.ValueID]ir.ValueID) // permanent: killed var -> repair var
	for id := 0; id < numVals; id++ {
		v := ir.ValueID(id)
		if killed[v] && used[v] {
			repair[v] = f.NewValue(f.ValueName(v) + "'")
		}
	}
	st.Repairs = len(repair)
	st.Killed = len(killed)

	home := func(v ir.ValueID) ir.ValueID { return res.Find(v) }
	// src yields the location holding v's value at any point dominated by
	// its repair snapshot: the repair variable if v was killed, else its
	// home resource.
	src := func(v ir.ValueID) ir.ValueID {
		if r, ok := repair[v]; ok {
			return r
		}
		return home(v)
	}

	// Instructions created by the translation carry final names and must
	// not be rewritten again when their block is processed later.
	emitted := make(map[*ir.Instr]bool)
	newCopy := func(d, s ir.ValueID) *ir.Instr {
		c := f.NewInstr(ir.Copy,
			[]ir.Operand{{Val: d}}, []ir.Operand{{Val: s}})
		emitted[c] = true
		return c
	}

	// ---- Reconstruct phase.
	for _, b := range f.Blocks() {
		// Replace the φs of b by parallel copies at the end of each pred.
		nphis := b.NumPhis()
		if nphis > 0 {
			var phis []*ir.Instr
			for _, phi := range b.Phis() {
				phis = append(phis, phi)
			}
			for pi := 0; pi < b.NumPreds(); pi++ {
				pred := b.Pred(pi)
				var defs, uses []ir.Operand
				for _, phi := range phis {
					dst := home(phi.Def(0))
					s := src(phi.Use(pi))
					if dst == s {
						continue // coalesced: no move needed (the "gain")
					}
					defs = append(defs, ir.Operand{Val: dst})
					uses = append(uses, ir.Operand{Val: s})
				}
				if len(defs) > 0 {
					st.PhiMoves += len(defs)
					pc := f.NewInstr(ir.ParCopy, defs, uses)
					emitted[pc] = true
					pred.InsertBeforeTerminator(pc)
				}
			}
			// Remove the φs; killed φ results (lost-copy self-kill) get
			// their snapshot right after the φ point, before anything can
			// clobber the resource.
			var snaps []*ir.Instr
			for _, phi := range phis {
				x := phi.Def(0)
				if r, ok := repair[x]; ok {
					snaps = append(snaps, newCopy(r, home(x)))
				}
			}
			for k := 0; k < nphis; k++ {
				b.RemoveAt(0)
			}
			for k, c := range snaps {
				b.InsertAt(k, c)
			}
		}

		for idx := 0; idx < b.NumInstrs(); idx++ {
			in := b.Instr(idx)
			if emitted[in] {
				continue
			}

			// Enforce use pins: needed (resource <- location) moves
			// execute in parallel just before the instruction.
			var preDefs, preUses []ir.Operand
			scheduled := make(map[ir.ValueID]ir.ValueID) // dst -> src
			pinnedIdx := make(map[int]bool)              // operand indexes rewritten to pinned resources
			for ui := 0; ui < in.NumUses(); ui++ {
				u := in.UseOp(ui)
				v := u.Val
				if !u.Pinned() {
					in.SetUse(ui, ir.Operand{Val: src(v)})
					continue
				}
				pinnedIdx[ui] = true
				want := res.Find(u.Pin())
				in.SetUse(ui, ir.Operand{Val: want})
				if _, wasKilled := repair[v]; home(v) == want && !wasKilled {
					continue // value already lives in the pinned resource
				}
				s := src(v)
				if s == want {
					continue
				}
				if prev, ok := scheduled[want]; ok {
					if prev != s {
						return nil, fmt.Errorf("leung: conflicting pinned uses %v=%v vs %v=%v in %q",
							f.VStr(want), f.VStr(prev), f.VStr(want), f.VStr(s), in)
					}
					continue
				}
				scheduled[want] = s
				preDefs = append(preDefs, ir.Operand{Val: want})
				preUses = append(preUses, ir.Operand{Val: s})
			}
			if len(preDefs) > 0 {
				// The parallel pre-copy writes pinned resources. Any other
				// operand of this instruction still reading one of those
				// resources must be rescued into a temporary first (the
				// kill analysis works at definition granularity and does
				// not see values that die exactly at this instruction).
				rescued := make(map[ir.ValueID]ir.ValueID)
				for ui := 0; ui < in.NumUses(); ui++ {
					uv := in.Use(ui)
					s, clobbered := scheduled[uv]
					if !clobbered || s == uv {
						continue
					}
					if !pinnedIdx[ui] {
						t, ok := rescued[uv]
						if !ok {
							t = f.NewValue("")
							rescued[uv] = t
							b.InsertAt(idx, newCopy(t, uv))
							idx++
							st.PinMoves++
						}
						in.SetUseVal(ui, t)
					}
				}
				st.PinMoves += len(preDefs)
				pre := f.NewInstr(ir.ParCopy, preDefs, preUses)
				emitted[pre] = true
				b.InsertAt(idx, pre)
				idx++
			}

			// Rewrite definitions to their home resources; snapshot killed
			// definitions immediately after the instruction.
			post := 0
			for di := 0; di < in.NumDefs(); di++ {
				v := in.Def(di)
				h := home(v)
				in.SetDef(di, ir.Operand{Val: h})
				if r, ok := repair[v]; ok {
					b.InsertAt(idx+1+post, newCopy(r, h))
					post++
				}
			}
			idx += post
		}
	}

	parcopy.Sequentialize(f)
	st.Interference = an.Counters()
	return st, nil
}
