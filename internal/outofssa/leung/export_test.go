package leung

// SetKillOracle makes every Translate until restore is called take its
// marks from a ResourceGraph over the function's classes, asking
// IsKilled of every virtual value, instead of from the one-walk
// KilledAll. Tests that use it must not run in parallel with other
// tests of the package.
func SetKillOracle(on bool) (restore func()) {
	prev := killMarks
	killMarks = nil
	if on {
		killMarks = resourceGraphMarks
	}
	return func() { killMarks = prev }
}
