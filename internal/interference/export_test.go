package interference

// SetPairwiseOracle makes every ResourceGraph built until restore is
// called answer its queries with the pairwise expansion. Tests that use
// it must not run in parallel with other tests of the package.
func SetPairwiseOracle(on bool) (restore func()) {
	prev := pairwiseOracle
	pairwiseOracle = on
	return func() { pairwiseOracle = prev }
}
