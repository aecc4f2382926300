package ssaopt

// The rewrites Optimize iterates, exposed to the per-rewrite tests.
var (
	CopyPropagate = copyPropagate
	ConstFold     = constFold
	LocalCSE      = localCSE
)
