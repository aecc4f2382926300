package pipeline

import "outofssa/internal/ir"

// RunPlan runs p on f as a batch job does, with opts applied; ended,
// when non-nil, sees each column's final function as the column ends.
func RunPlan(f *ir.Func, p *Plan, ended func(col int, f *ir.Func), opts ...Option) ([]*Result, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	rc.ended = ended
	return rc.runPlan(f, p)
}

// PassRuns is the number of passes one function runs under p: the
// nodes of its trie.
func (p *Plan) PassRuns() int { return p.nodes }
