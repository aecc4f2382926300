package regalloc

import (
	"fmt"
	"sort"

	"outofssa/internal/analysis"
	"outofssa/internal/bitset"
	"outofssa/internal/cfg"
	"outofssa/internal/ir"
)

// AllocStats describes a register allocation run.
type AllocStats struct {
	// ColorsUsed is the number of distinct physical registers assigned.
	ColorsUsed int
	// Spills is the number of values spilled to stack slots, SpillLoads
	// and SpillStores the memory traffic inserted.
	Spills      int
	SpillLoads  int
	SpillStores int
	// Rounds is the number of build-color rounds until spill-free.
	Rounds int
	// MaxPressure is the maximum number of simultaneously live values
	// observed before allocation.
	MaxPressure int
}

// Allocate is a Chaitin-Briggs graph-coloring register allocator for the
// non-SSA machine code produced by the out-of-SSA translators: it
// assigns every virtual register to a dedicated register of the target
// (R0..R15 and P0..P7; SP is reserved for the stack), spilling to
// SP-relative slots when the graph is uncolorable (Briggs-style
// optimistic coloring, spill costs weighted by 5^loopdepth and divided
// by degree).
//
// The paper stops before this phase ([LIM4]: "in the case of strong
// register pressure, the problem becomes different") — the allocator is
// provided as the natural downstream consumer so the effect of the
// coalescing decisions on colorability can be measured
// (BenchmarkRegisterPressure).
//
// AllocateLimited restricts the pool to the first maxRegs allocatable
// registers (0 means all of them); small pools force the spill path and
// expose the register-pressure interplay of [LIM4].
func AllocateLimited(f *ir.Func, maxRegs int) (*AllocStats, error) {
	st := &AllocStats{}
	cfg.ComputeLoopDepth(f)

	// Allocatable pool: every dedicated register except SP.
	var pool []ir.ValueID
	pool = append(pool, f.Target.R...)
	pool = append(pool, f.Target.P...)
	if maxRegs > 0 && maxRegs < len(pool) {
		pool = pool[:maxRegs]
	}
	k := len(pool)
	poolIdx := make(map[ir.ValueID]int, k)
	for i, r := range pool {
		poolIdx[r] = i
	}

	// Pre-assign spill slots lazily; the frame grows downward from SP.
	nextSlot := int64(64) // leave room for the workloads' own SP traffic
	spillSlot := make(map[ir.ValueID]int64)
	// Reload/store temporaries have minimal live ranges and must never be
	// spill candidates themselves, or spilling diverges.
	noSpill := make(map[ir.ValueID]bool)

	for {
		st.Rounds++
		if st.Rounds > 40 {
			return nil, fmt.Errorf("regalloc: no fixed point after %d rounds", st.Rounds)
		}
		spilled, err := colorRound(f, pool, poolIdx, st, spillSlot, &nextSlot, noSpill)
		if err != nil {
			return nil, err
		}
		if !spilled {
			break
		}
	}
	return st, nil
}

// colorRound builds the interference graph and attempts a coloring;
// on failure it spills the chosen candidates and reports true.
func colorRound(f *ir.Func, pool []ir.ValueID, poolIdx map[ir.ValueID]int,
	st *AllocStats, spillSlot map[ir.ValueID]int64, nextSlot *int64,
	noSpill map[ir.ValueID]bool) (bool, error) {

	nv := f.NumValues()
	k := len(pool)
	live := analysis.Liveness(f)

	adj := make([]*bitset.Set, nv)
	for i := range adj {
		adj[i] = bitset.New(nv)
	}
	addEdge := func(a, b int) {
		if a != b {
			adj[a].Add(b)
			adj[b].Add(a)
		}
	}
	cost := make([]float64, nv)
	pressure := 0
	for _, b := range f.Blocks() {
		w := 1.0
		for d := 0; d < b.LoopDepth; d++ {
			w *= 5
		}
		cur := live.ExitLiveSet(b).Copy()
		if n := cur.Len(); n > pressure {
			pressure = n
		}
		for i := b.NumInstrs() - 1; i >= 0; i-- {
			in := b.Instr(i)
			for _, d := range in.Defs() {
				cur.Remove(int(d.Val))
				cost[d.Val] += w
			}
			for _, d := range in.Defs() {
				dv := d.Val
				cur.ForEach(func(l int) {
					if in.Op() == ir.Copy && l == int(in.Use(0)) {
						return
					}
					addEdge(int(dv), l)
				})
				for _, d2 := range in.Defs() {
					addEdge(int(dv), int(d2.Val))
				}
			}
			for _, u := range in.Uses() {
				cur.Add(int(u.Val))
				cost[u.Val] += w
			}
			if n := cur.Len(); n > pressure {
				pressure = n
			}
		}
	}
	if pressure > st.MaxPressure {
		st.MaxPressure = pressure
	}

	// Also: every pair of distinct physical registers interferes.
	var virtuals []ir.ValueID
	inUse := make([]bool, nv)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, o := range in.Defs() {
				inUse[o.Val] = true
			}
			for _, o := range in.Uses() {
				inUse[o.Val] = true
			}
		}
	}
	for id := 0; id < nv; id++ {
		v := ir.ValueID(id)
		if !f.IsPhys(v) && inUse[v] {
			virtuals = append(virtuals, v)
		}
	}

	degree := func(v ir.ValueID) int { return adj[v].Len() }

	// Simplify with optimistic push (Briggs).
	removed := make([]bool, nv)
	var stack []ir.ValueID
	remaining := append([]ir.ValueID(nil), virtuals...)
	for len(remaining) > 0 {
		// Pick a low-degree node if possible.
		pick := -1
		for i, v := range remaining {
			deg := 0
			adj[v].ForEach(func(n int) {
				if !removed[n] {
					deg++
				}
			})
			if deg < k {
				pick = i
				break
			}
		}
		if pick < 0 {
			// Spill candidate: minimal cost/degree ratio (deterministic
			// tie-break by ID); pushed optimistically. Reload temporaries
			// are never candidates.
			best, bestRatio := -1, 0.0
			for i, v := range remaining {
				if noSpill[v] {
					continue
				}
				d := degree(v)
				if d == 0 {
					d = 1
				}
				ratio := cost[v] / float64(d)
				if best < 0 || ratio < bestRatio ||
					(ratio == bestRatio && v < remaining[best]) {
					best, bestRatio = i, ratio
				}
			}
			if best < 0 {
				best = 0 // only temporaries remain: push any, optimistically
			}
			pick = best
		}
		v := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		removed[v] = true
		stack = append(stack, v)
	}

	// Select.
	assign := make(map[ir.ValueID]ir.ValueID)
	var mustSpill []ir.ValueID
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		taken := make([]bool, k)
		adj[v].ForEach(func(n int) {
			nb := ir.ValueID(n)
			if f.IsPhys(nb) {
				if idx, ok := poolIdx[nb]; ok {
					taken[idx] = true
				}
				return
			}
			if r, ok := assign[nb]; ok {
				taken[poolIdx[r]] = true
			}
		})
		colored := false
		for c := 0; c < k; c++ {
			if !taken[c] {
				assign[v] = pool[c]
				colored = true
				break
			}
		}
		if !colored {
			mustSpill = append(mustSpill, v)
		}
	}

	if len(mustSpill) > 0 {
		sort.Slice(mustSpill, func(i, j int) bool { return mustSpill[i] < mustSpill[j] })
		progress := false
		doSpill := func(v ir.ValueID) error {
			if _, ok := spillSlot[v]; ok {
				return fmt.Errorf("regalloc: %v spilled twice", f.VStr(v))
			}
			spillSlot[v] = *nextSlot
			*nextSlot += 8
			st.Spills++
			spillValue(f, v, spillSlot[v], st, noSpill)
			progress = true
			return nil
		}
		spilledThisRound := make(map[ir.ValueID]bool)
		for _, v := range mustSpill {
			if !noSpill[v] {
				if err := doSpill(v); err != nil {
					return false, err
				}
				spilledThisRound[v] = true
				continue
			}
			// An unspillable reload temporary failed to color: relieve the
			// pressure by spilling its cheapest ordinary neighbour instead.
			best := ir.NoValue
			bestRatio := 0.0
			adj[v].ForEach(func(n int) {
				nb := ir.ValueID(n)
				if f.IsPhys(nb) || noSpill[nb] || spilledThisRound[nb] {
					return
				}
				if _, ok := spillSlot[nb]; ok {
					return
				}
				d := adj[nb].Len()
				if d == 0 {
					d = 1
				}
				ratio := cost[nb] / float64(d)
				if best == ir.NoValue || ratio < bestRatio || (ratio == bestRatio && nb < best) {
					best, bestRatio = nb, ratio
				}
			})
			if best != ir.NoValue {
				if err := doSpill(best); err != nil {
					return false, err
				}
				spilledThisRound[best] = true
			}
		}
		if !progress {
			return false, fmt.Errorf("regalloc: %d uncolorable reload temporaries with %d registers",
				len(mustSpill), len(pool))
		}
		return true, nil
	}

	// Commit: rewrite every virtual operand to its register.
	used := make(map[ir.ValueID]bool)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for idx := 0; idx < in.NumDefs(); idx++ {
				if r, ok := assign[in.Def(idx)]; ok {
					in.SetDefVal(idx, r)
					used[r] = true
				} else if f.IsPhys(in.Def(idx)) {
					used[in.Def(idx)] = true
				}
			}
			for idx := 0; idx < in.NumUses(); idx++ {
				if r, ok := assign[in.Use(idx)]; ok {
					in.SetUseVal(idx, r)
					used[r] = true
				} else if f.IsPhys(in.Use(idx)) {
					used[in.Use(idx)] = true
				}
			}
		}
	}
	st.ColorsUsed = len(used)
	return false, nil
}

// spillValue rewrites every def of v to store to its slot and every use
// to reload into a fresh short-lived temporary.
func spillValue(f *ir.Func, v ir.ValueID, slot int64, st *AllocStats, noSpill map[ir.ValueID]bool) {
	sp := f.Target.SP
	for _, b := range f.Blocks() {
		for idx := 0; idx < b.NumInstrs(); idx++ {
			in := b.Instr(idx)
			// Reload before uses.
			tmp := ir.NoValue
			for ui := 0; ui < in.NumUses(); ui++ {
				if in.Use(ui) != v {
					continue
				}
				if tmp == ir.NoValue {
					tmp = f.NewValue(f.ValueName(v) + ".r")
					addr := f.NewValue("")
					off := f.NewValue("")
					noSpill[tmp], noSpill[addr], noSpill[off] = true, true, true
					cst := f.NewInstr(ir.Const, ir.Ops(off), nil)
					cst.Imm = slot
					b.InsertAt(idx, cst)
					b.InsertAt(idx+1, f.NewInstr(ir.Add, ir.Ops(addr), ir.Ops(sp, off)))
					b.InsertAt(idx+2, f.NewInstr(ir.Load, ir.Ops(tmp), ir.Ops(addr)))
					idx += 3
					st.SpillLoads++
				}
				in.SetUseVal(ui, tmp)
			}
			// Store after defs.
			for di := 0; di < in.NumDefs(); di++ {
				if in.Def(di) != v {
					continue
				}
				tmp2 := f.NewValue(f.ValueName(v) + ".s")
				in.SetDefVal(di, tmp2)
				addr := f.NewValue("")
				off := f.NewValue("")
				noSpill[tmp2], noSpill[addr], noSpill[off] = true, true, true
				cst := f.NewInstr(ir.Const, ir.Ops(off), nil)
				cst.Imm = slot
				b.InsertAt(idx+1, cst)
				b.InsertAt(idx+2, f.NewInstr(ir.Add, ir.Ops(addr), ir.Ops(sp, off)))
				b.InsertAt(idx+3, f.NewInstr(ir.Store, nil, ir.Ops(addr, tmp2)))
				idx += 3
				st.SpillStores++
			}
		}
	}
}
