package parcopy

import "outofssa/internal/ir"

// SetTwin makes every Sequentialize until restore is called hand its
// function to before first, and call the function before returns once
// it has lowered every parallel copy. Tests that use it must not run in
// parallel with other tests of the package.
func SetTwin(before func(f *ir.Func) (after func())) (restore func()) {
	prev := twin
	twin = before
	return func() { twin = prev }
}
