package regalloc

// SetFullGraphOracle makes every AggressiveCoalesce call until restore
// is called run its rounds on the full interference graph over all
// values, built from the shared liveness engine, instead of the
// copy-operand rounds. Tests that use it must not run in parallel with
// other tests of the package.
func SetFullGraphOracle(on bool) (restore func()) {
	prev := fullGraphRound
	fullGraphRound = nil
	if on {
		fullGraphRound = fullGraphCoalesceRound
	}
	return func() { fullGraphRound = prev }
}
