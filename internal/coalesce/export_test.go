package coalesce

import (
	"outofssa/internal/interference"
	"outofssa/internal/pin"
)

// SetPinningOracle makes every ProgramPinning and PrePinDefs until
// restore is called answer from a ResourceGraph over the phase's
// classes, the pairwise oracle, instead of from the row table. Tests
// that use it must not run in parallel with other tests of the package.
func SetPinningOracle(on bool) (restore func()) {
	prev := liftWith
	liftWith = nil
	if on {
		liftWith = func(_ *interference.Table, an *interference.Analysis, res *pin.Resources) lifting {
			return interference.NewResourceGraph(an, res)
		}
	}
	return func() { liftWith = prev }
}

// SetPinningTwin makes every ProgramPinning and PrePinDefs until
// restore is called ask both the row table and the oracle, as
// CheckDecisions does, and store the first disagreement in *mismatch.
// The same restriction applies.
func SetPinningTwin(mismatch *string) (restore func()) {
	prev := liftWith
	liftWith = twinOf(mismatch)
	return func() { liftWith = prev }
}
