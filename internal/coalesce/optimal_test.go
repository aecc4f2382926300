package coalesce_test

import (
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// slot is one φ argument position that could be coalesced.
type slot struct{ def, arg ir.ValueID }

// collectSlots gathers the coalescable φ slots of f (arguments not
// already killed within their resource).
func collectSlots(f *ir.Func, rg *interference.ResourceGraph) []slot {
	var out []slot
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			for _, u := range phi.Uses() {
				if u.Val == phi.Def(0) {
					continue
				}
				if rg.IsKilled(u.Val) {
					continue
				}
				out = append(out, slot{phi.Def(0), u.Val})
			}
		}
	}
	return out
}

// gainOf evaluates the total gain of attempting exactly the slots in
// subset (bitmask), merging in slot order with the incremental
// interference check; infeasible merges simply fail (mirroring the
// deferred-edge behaviour of the real algorithm).
func gainOf(f *ir.Func, an *interference.Analysis, slots []slot, subset uint) int {
	res, err := pin.NewResources(f)
	if err != nil {
		return -1
	}
	rg := interference.NewResourceGraph(an, res)
	for i, s := range slots {
		if subset&(1<<uint(i)) == 0 {
			continue
		}
		a, d := res.Find(s.arg), res.Find(s.def)
		if a == d || rg.Interfere(a, d) {
			continue
		}
		_, _ = res.Union(a, d)
	}
	gain := 0
	for _, s := range slots {
		if res.Find(s.arg) == res.Find(s.def) && !rg.IsKilled(s.arg) {
			gain++
		}
	}
	return gain
}

// TestGreedyVsOptimal: the paper proves the pruning problem NP-complete
// and uses a greedy heuristic; this ablation enumerates every subset of
// coalescable slots on small functions and checks the greedy result is
// optimal or within one slot of it.
func TestGreedyVsOptimal(t *testing.T) {
	var funcs []*ir.Func
	for _, f := range workload.VALcc1().Funcs {
		funcs = append(funcs, f)
	}
	for seed := int64(0); seed < 10; seed++ {
		funcs = append(funcs, testprog.Rand(seed, testprog.DefaultRandOptions()))
	}

	checked := 0
	var totalGreedy, totalOptimal int
	for _, f := range funcs {
		info := ssa.MustBuild(f)
		pin.CollectSP(f, info)
		pin.CollectABI(f)
		// Normalize the CFG exactly as ProgramPinning will see it.
		cfg.SplitCriticalEdges(f)
		cfg.ComputeLoopDepth(f)

		res, err := pin.NewResources(f)
		if err != nil {
			t.Fatal(err)
		}
		live := liveness.Compute(f)
		an := interference.New(f, live, cfg.Dominators(f), interference.Exact)
		rg := interference.NewResourceGraph(an, res)
		slots := collectSlots(f, rg)
		if len(slots) == 0 || len(slots) > 14 {
			continue // trivial, or 2^n too large for exhaustion
		}
		checked++

		optimal := 0
		for subset := uint(0); subset < 1<<uint(len(slots)); subset++ {
			if g := gainOf(f, an, slots, subset); g > optimal {
				optimal = g
			}
		}

		g := f.Clone()
		st, err := coalesce.ProgramPinning(g, coalesce.Options{})
		if err != nil {
			t.Fatal(err)
		}
		totalGreedy += st.Gain
		totalOptimal += optimal
		if st.Gain > optimal {
			t.Errorf("%s: greedy gain %d exceeds exhaustive optimum %d — metric broken",
				f.Name, st.Gain, optimal)
		}
		if st.Gain < optimal-1 {
			t.Errorf("%s: greedy gain %d far below optimum %d (slots %d)",
				f.Name, st.Gain, optimal, len(slots))
		}
	}
	if checked < 10 {
		t.Fatalf("only %d functions small enough for exhaustion — widen the corpus", checked)
	}
	if totalGreedy < totalOptimal*9/10 {
		t.Errorf("aggregate greedy %d below 90%% of optimal %d", totalGreedy, totalOptimal)
	}
	t.Logf("exhaustively checked %d functions: greedy %d vs optimal %d slots",
		checked, totalGreedy, totalOptimal)
}
