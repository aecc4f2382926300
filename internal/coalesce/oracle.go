package coalesce

import (
	"fmt"

	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/pin"
)

// CheckDecisions runs ProgramPinning on f with opt, asking every
// IsKilled, Interfere and Merge question of the row table and again of
// a ResourceGraph over the same classes, the pairwise oracle. It goes
// on with the table's answers and returns the first question on which
// the two disagree, or "" when none does. No binary calls it: it is the
// per-decision check of the tests and FuzzPipelineDifferential.
func CheckDecisions(f *ir.Func, opt Options) (mismatch string, err error) {
	_, err = programPinning(f, opt, twinOf(&mismatch))
	return mismatch, err
}

// twinOf returns a lifting wrapper that holds the table to the oracle,
// describing the first disagreement in *mismatch.
func twinOf(mismatch *string) wrapper {
	return func(t *interference.Table, an *interference.Analysis, res *pin.Resources) lifting {
		return &twin{table: t, oracle: interference.NewResourceGraph(an, res), mismatch: mismatch}
	}
}

// twin answers with the table and records where the oracle differs.
// Both read the same classes, so Merge asks the oracle's Interfere
// before the table's Merge unions them.
type twin struct {
	table    *interference.Table
	oracle   *interference.ResourceGraph
	mismatch *string
}

func (w *twin) check(got, want bool, format string, args ...any) bool {
	if got != want && *w.mismatch == "" {
		f := w.oracle.Res.Func()
		*w.mismatch = fmt.Sprintf("%s: %s: table %v, oracle %v\n%s", f.Name, fmt.Sprintf(format, args...), got, want, f)
	}
	return got
}

func (w *twin) IsKilled(v ir.ValueID) bool {
	f := w.oracle.Res.Func()
	return w.check(w.table.IsKilled(v), w.oracle.IsKilled(v), "IsKilled(%s)", f.VStr(v))
}

func (w *twin) Interfere(a, b ir.ValueID) bool {
	f := w.oracle.Res.Func()
	return w.check(w.table.Interfere(a, b), w.oracle.Interfere(a, b), "Interfere(%s, %s)", f.VStr(a), f.VStr(b))
}

func (w *twin) Merge(a, b ir.ValueID) bool {
	f := w.oracle.Res.Func()
	want := !w.oracle.Interfere(a, b)
	return w.check(w.table.Merge(a, b), want, "Merge(%s, %s)", f.VStr(a), f.VStr(b))
}
