package faultinject

import "outofssa/internal/ir"

// InjectCOWAliasing runs the copy-on-write isolation probe on f; see
// ir.Func.ProbeCOWIsolation, which checked mode runs. It remains here
// under its old name for the benchmark's replay, which calls it.
func InjectCOWAliasing(f *ir.Func) error { return f.ProbeCOWIsolation() }
