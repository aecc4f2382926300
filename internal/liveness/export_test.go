package liveness

// SetIterativeOracle makes every NewQuery call until restore is called
// build the iterative fixed point (Compute) instead, which routes each
// analysis.Liveness cache miss through the reference engine. The cache
// does not record which engine built an entry, so tests that use it
// must build their functions fresh, and must not run in parallel with
// other tests of the package.
func SetIterativeOracle(on bool) (restore func()) {
	prev := iterativeOracle
	iterativeOracle = on
	return func() { iterativeOracle = prev }
}
