package main

import (
	"fmt"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/coalesce"
	"outofssa/internal/faultinject"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/naiveabi"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/outofssa/naive"
	"outofssa/internal/outofssa/sreedhar"
	"outofssa/internal/pin"
	"outofssa/internal/pipeline"
	"outofssa/internal/psi"
	"outofssa/internal/regalloc"
	"outofssa/internal/ssa"
	"outofssa/internal/ssaopt"
	"outofssa/internal/verify"
)

// replayed is what a pass-by-pass replay produced: the final move
// counts (as pipeline.Result has them) and the interference counters
// the passes report in their Stats.
type replayed struct {
	moves         int
	weightedMoves int64
	interference  interference.Counters
}

// replay re-enacts pipeline.Run(f, conf) on f by calling each pass
// module's public entry point in the pipeline's order, one span per
// call. In checked mode (conf.Verify) it adds the entry verification,
// the copy-on-write probe and verify.Func after every pass, and with
// conf.Fallback it takes the backup snapshot the pipeline keeps. The
// pipeline's strip-pins step for presets without ABI constraints is
// unexported, so the replay rebuilds it from the public IR mutators.
//
// The replay must leave f printing byte-identical to what pipeline.Run
// leaves; callers check that, so a change to the pass order or to a
// pass's entry point fails the per-module split loudly instead of
// skewing it.
func replay(st stepper, f *ir.Func, conf pipeline.Config) (*replayed, error) {
	var info *ssa.Info
	if err := st.step("ssa.Build", func() (err error) { info, err = ssa.Build(f); return err }); err != nil {
		return nil, err
	}
	ssaVerify := func() error { return st.step("ssa.Verify", func() error { return ssa.Verify(f) }) }
	if err := ssaVerify(); err != nil {
		return nil, err
	}
	if conf.Verify {
		if err := st.step("faultinject.InjectCOWAliasing", func() error { return faultinject.InjectCOWAliasing(f) }); err != nil {
			return nil, err
		}
	}
	if conf.Fallback {
		// The pipeline's fallback backup: it is never released, so the
		// passes' first writes copy the shared slabs instead of adopting
		// them, as they do inside pipeline.Run.
		st.step("ir.Func.Snapshot", func() error { f.Snapshot(); return nil })
	}

	// pass runs one pipeline step as a sequence of calls followed, in
	// checked mode, by verify.Func at the step's stage, as the
	// pipeline's runOne does. The first error sticks and skips the rest.
	var err error
	pass := func(stage verify.Stage, calls ...func() error) {
		for _, c := range calls {
			if err == nil {
				err = c()
			}
		}
		if err == nil && conf.Verify {
			err = st.step("verify.Func", func() error { return verify.Func(f, stage) })
		}
	}
	call := func(name string, fn func() error) func() error {
		return func() error { return st.step(name, fn) }
	}
	r := &replayed{}
	ssaStage, postStage := verify.StageSSA, verify.StagePostSSA

	pass(ssaStage) // the checked pipeline verifies its entry state
	if !conf.ABI {
		pass(ssaStage, call("ir.strip-pins", func() error { stripNonSPPins(f); return nil }))
	}
	if conf.Optimize {
		pass(ssaStage, call("ssaopt.Optimize", func() error { ssaopt.Optimize(f, info); return nil }), ssaVerify)
	}
	if conf.Psi {
		pass(ssaStage,
			call("psi.IfConvert", func() error { psi.IfConvert(f); return nil }),
			call("psi.ConvertPsi", func() error { psi.ConvertPsi(f); return nil }),
			call("ssaopt.FoldSelects", func() error { ssaopt.FoldSelects(f); return nil }),
			call("ssaopt.EliminateDeadCode", func() error { ssaopt.EliminateDeadCode(f); return nil }),
			ssaVerify)
	}
	if conf.Sreedhar {
		pass(ssaStage, call("sreedhar.ConvertToCSSA", func() error {
			_, _, err := sreedhar.ConvertToCSSA(f, sreedhar.Options{
				Unsplittable: func(v ir.ValueID) bool { return info.OrigPhys(v) != ir.NoValue },
			})
			return err
		}))
	}
	pass(ssaStage, call("pin.CollectSP", func() error { pin.CollectSP(f, info); return nil }))
	if conf.ABI {
		pass(ssaStage, call("pin.CollectABI", func() error { pin.CollectABI(f); return nil }))
	}
	if conf.Sreedhar {
		var (
			live *liveness.Info
			dom  *cfg.DomTree
			an   *interference.Analysis
		)
		pass(ssaStage,
			call("analysis.Liveness", func() error { live = analysis.Liveness(f); return nil }),
			call("analysis.Dominators", func() error { dom = analysis.Dominators(f); return nil }),
			call("interference.New", func() error { an = interference.New(f, live, dom, interference.Exact); return nil }),
			call("pin.CollectPhiCSSA", func() error { _, _, err := pin.CollectPhiCSSA(f, an); return err }))
	}
	if conf.PrePin {
		pass(ssaStage, call("coalesce.PrePinDefs", func() error {
			s, err := coalesce.PrePinDefs(f, conf.Coalesce.Mode)
			if err == nil {
				addCounters(&r.interference, s.Interference)
			}
			return err
		}))
	}
	if conf.PhiCoalesce {
		pass(ssaStage, call("coalesce.ProgramPinning", func() error {
			s, err := coalesce.ProgramPinning(f, conf.Coalesce)
			if err == nil {
				addCounters(&r.interference, s.Interference)
			}
			return err
		}))
	}
	if conf.NaiveOut {
		pass(postStage, call("naive.Translate", func() error { _, err := naive.Translate(f); return err }))
	} else {
		pass(postStage, call("leung.Translate", func() error {
			s, err := leung.Translate(f)
			if err == nil {
				addCounters(&r.interference, s.Interference)
			}
			return err
		}))
	}
	if conf.NaiveABI {
		pass(postStage, call("naiveabi.Apply", func() error { naiveabi.Apply(f); return nil }))
	}
	if conf.Chaitin {
		pass(postStage, call("regalloc.AggressiveCoalesce", func() error { regalloc.AggressiveCoalesce(f); return nil }))
	}
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", f.Name, err)
	}
	st.step("cfg.ComputeLoopDepth", func() error { cfg.ComputeLoopDepth(f); return nil })
	r.moves = f.CountMoves()
	r.weightedMoves = f.WeightedMoves()
	return r, nil
}

// stripNonSPPins is the pipeline's strip-pins step rebuilt from the
// public IR mutators: it drops operand pins to dedicated registers
// other than SP ("renaming constraints ignored", Table 2's setup).
func stripNonSPPins(f *ir.Func) {
	sp := f.Target.SP
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for i, d := range in.Defs() {
				if d.Pinned() && f.IsPhys(d.Pin()) && d.Pin() != sp {
					in.SetDef(i, ir.Operand{Val: d.Val})
				}
			}
			for i, u := range in.Uses() {
				if u.Pinned() && f.IsPhys(u.Pin()) && u.Pin() != sp {
					in.SetUse(i, ir.Operand{Val: u.Val})
				}
			}
		}
	}
}

func addCounters(dst *interference.Counters, c interference.Counters) {
	dst.KillQueries += c.KillQueries
	dst.ResourceKilled += c.ResourceKilled
	dst.ResourceInterfere += c.ResourceInterfere
	dst.KilledMemoHits += c.KilledMemoHits
	dst.InterfereMemoHits += c.InterfereMemoHits
	dst.LiveQueryHits += c.LiveQueryHits
	dst.LiveQueryMisses += c.LiveQueryMisses
}

// interferenceLayers turns the summed pass counters into the
// interference and liveness per-layer metrics.
func interferenceLayers(rep *report, c *interference.Counters, funcs int) {
	rep.layers["interference.kill_queries_per_func"] = ratio(float64(c.KillQueries), float64(funcs))
	rep.layers["interference.memo_hit_ratio"] = ratio(float64(c.KilledMemoHits+c.InterfereMemoHits),
		float64(c.ResourceKilled+c.ResourceInterfere))
	rep.layers["liveness.query_hit_ratio"] = ratio(float64(c.LiveQueryHits), float64(c.LiveQueryHits+c.LiveQueryMisses))
}
