package coalesce

import (
	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/pin"
)

// PrePinStats reports what PrePinDefs did.
type PrePinStats struct {
	// DefsPinned is the number of definitions merged into the resource of
	// one of their pinned uses.
	DefsPinned int
	// Skipped counts candidate (def, use-pin) pairs rejected because the
	// merge would have created an interference.
	Skipped int
	// Interference snapshots the analysis query counters accumulated by
	// the pass (the tracer's view into the hot path).
	Interference interference.Counters
}

// AppendCounters appends the statistics to dst as trace counters, in
// field order.
func (s *PrePinStats) AppendCounters(dst []obs.Counter) []obs.Counter {
	dst = append(dst,
		obs.Counter{Name: "DefsPinned", Value: int64(s.DefsPinned)},
		obs.Counter{Name: "Skipped", Value: int64(s.Skipped)})
	return s.Interference.AppendCounters(dst)
}

// PrePinDefs implements the pre-pass the paper suggests for limitation
// [LIM2]: "when the use of a variable is pinned to a resource, [Leung and
// George's algorithm] does not try to coalesce its definition with this
// resource. This can be avoided by using a pre-pass to pin the variable
// definitions."
//
// For every use operand pinned to a resource R (2-operand ties, ABI
// argument slots), the used variable's definition is pinned to R when the
// merge creates no new interference — exactly the Condition-2 discipline
// of Program_pinning. The move the reconstruction would insert before the
// constrained instruction then disappears.
//
// Candidates are visited innermost-loop first, like the main algorithm,
// so contended resources go to the most frequently executed sites.
func PrePinDefs(f *ir.Func, mode interference.Mode) (*PrePinStats, error) {
	return prePinDefs(f, mode, liftWith)
}

func prePinDefs(f *ir.Func, mode interference.Mode, wrap wrapper) (*PrePinStats, error) {
	cfg.SplitCriticalEdges(f)
	cfg.SetLoopDepth(f, analysis.Dominators(f))

	res, err := pin.NewResources(f)
	if err != nil {
		return nil, err
	}
	live := analysis.Liveness(f)
	dom := analysis.Dominators(f)
	an := interference.New(f, live, dom, mode)
	// A merge joins the class of a value with a pinned use and the class
	// it is pinned to, so those are the classes every question is about.
	lift := newLifting(an, res, pinnedUses(f), wrap)

	blocks := append([]*ir.Block(nil), f.Blocks()...)
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && deeperFirst(blocks[j], blocks[j-1]); j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}

	st := &PrePinStats{}
	for _, b := range blocks {
		for _, in := range b.Instrs() {
			if in.Op() == ir.Phi {
				continue // φ argument affinities belong to ProgramPinning
			}
			for _, u := range in.Uses() {
				if !u.Pinned() {
					continue
				}
				v := u.Val
				want := res.Find(u.Pin())
				if f.IsPhys(want) {
					// Joining a dedicated register's class wholesale is a
					// bad trade: it blocks later φ merges against the whole
					// class. Physical slots keep their local move (or are
					// picked up by the φ coalescer when genuinely free).
					continue
				}
				if res.Find(v) == want {
					continue
				}
				// The value must not be killed in its own resource at this
				// point (then the repair move is unavoidable anyway), and
				// merging must not create a new interference.
				if lift.IsKilled(v) || !lift.Merge(v, want) {
					st.Skipped++
					continue
				}
				st.DefsPinned++
			}
		}
	}
	pin.RepinDefs(f, res)
	st.Interference = an.Counters()
	return st, nil
}

// pinnedUses returns the value and the pin of every pinned use outside
// a φ.
func pinnedUses(f *ir.Func) []ir.ValueID {
	var vals []ir.ValueID
	for _, b := range f.Blocks() {
		for i := b.NumPhis(); i < b.NumInstrs(); i++ {
			for _, u := range b.Instr(i).Uses() {
				if u.Pinned() {
					vals = append(vals, u.Val, u.Pin())
				}
			}
		}
	}
	return vals
}

func deeperFirst(a, b *ir.Block) bool {
	if a.LoopDepth != b.LoopDepth {
		return a.LoopDepth > b.LoopDepth
	}
	return a.ID < b.ID
}
