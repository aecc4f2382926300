// Shared pass prefixes. The paper's Table 1 defines every experiment as
// a subset of one ordered pass list, so the columns of Tables 2–5 share
// long prefixes: every column starts with ssaopt, Table 5's base column
// is Table 3's Lphi,ABI+C, and Table 4's Lphi,ABI is Lphi,ABI+C without
// its last pass. A Plan compiles the columns of one call into the trie
// of those prefixes, and a job walks the trie on one function, so each
// distinct prefix runs once per function however many columns share it.
package pipeline

import (
	"errors"
	"fmt"

	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/ssa"
)

// Column is one table column: the configuration its cells run and the
// experiment label its trace events and metrics carry.
type Column struct {
	Config     Config
	Experiment string
}

// Plan is a list of columns compiled into the trie of their pass
// lists. Build it once per call with NewPlan and share it read-only
// among the call's jobs.
type Plan struct {
	cols []Column
	root node
	// nodes counts the trie's passes; depth is its longest pass list.
	nodes, depth int
	// paths lists, per column, the nodes of its pass list in order.
	paths [][]*node
}

// node is one pass of the trie. Every column whose pass list reaches
// it shares one run of the prefix it ends.
type node struct {
	pass pass
	// id indexes a walk's per-node state; seq is the pass's position in
	// every pass list through the node.
	id, seq int
	// first is the first column through the node. Its label names the
	// node's failures, as the first failing column's own run would.
	first int
	// ends lists the columns whose pass list ends here, in column order.
	ends     []int
	children []*node
}

// NewPlan compiles cols into the trie of their pass lists: two columns
// share a node wherever their pass lists agree on every pass key up to
// it. A plan of more than one column takes no Fallback and no
// FaultHook, and its columns agree on Verify: those act on one run, and
// a shared pass belongs to several.
func NewPlan(cols ...Column) (*Plan, error) {
	if len(cols) == 0 {
		return nil, errors.New("pipeline: a plan needs a column")
	}
	if len(cols) > 1 {
		for _, c := range cols {
			if c.Config.Fallback || c.Config.FaultHook != nil {
				return nil, fmt.Errorf("pipeline: column %q sets Fallback or FaultHook, which act on one run, in a plan of %d columns",
					c.Experiment, len(cols))
			}
			if c.Config.Verify != cols[0].Config.Verify {
				return nil, fmt.Errorf("pipeline: columns %q and %q of one plan disagree on Verify",
					cols[0].Experiment, c.Experiment)
			}
		}
	}
	p := &Plan{cols: cols, paths: make([][]*node, len(cols))}
	for ci, c := range cols {
		nd := &p.root
		for seq, ps := range c.Config.passes() {
			next := nd.child(ps.passKey)
			if next == nil {
				next = &node{pass: ps, id: p.nodes, seq: seq, first: ci}
				p.nodes++
				nd.children = append(nd.children, next)
			}
			nd = next
			p.paths[ci] = append(p.paths[ci], nd)
		}
		nd.ends = append(nd.ends, ci)
		p.depth = max(p.depth, len(p.paths[ci]))
	}
	return p, nil
}

// child returns nd's child with key k, or nil.
func (nd *node) child(k passKey) *node {
	for _, c := range nd.children {
		if c.pass.passKey == k {
			return c
		}
	}
	return nil
}

// runPlan runs every column of p on f and returns one Result per
// column, nil where the column failed, with the first failing column's
// error. A one-column plan is one run, exactly as Run does it. Several
// columns walk the trie depth first, each distinct prefix once: at a
// node with k children the first k−1 run on a Snapshot of the node's
// function and the last continues on the function itself. A column
// reads its numbers at its end node, before any child mutates the
// function. In checked mode the COW probe and the "<input>" check run
// once, and every node's output is verified once.
func (rc *runConfig) runPlan(f *ir.Func, p *Plan) ([]*Result, error) {
	if len(p.cols) == 1 {
		rc.exp = p.cols[0].Experiment
		r, err := rc.run(f, p.cols[0].Config)
		return []*Result{r}, err
	}
	info, err := rc.ssaInfo(f)
	if err != nil {
		return nil, err
	}
	first := p.cols[0]
	checked := first.Config.Verify
	if checked {
		if err := cowProbe(f, first.Experiment); err != nil {
			return nil, err
		}
	}
	w := &walk{
		plan:    p,
		info:    info,
		opts:    runOpts{verify: checked, ctx: rc.ctx},
		m:       meter{on: rc.tracer != nil || rc.metrics != nil, detail: rc.tracer != nil},
		reg:     rc.metrics,
		tr:      rc.tracer,
		errs:    make([]error, p.nodes),
		results: make([]*Result, len(p.cols)),
		stack:   make([]Result, p.depth+1),
		ended:   rc.ended,
	}
	if w.m.on {
		w.evs = make([]*obs.Event, p.nodes)
	}
	if w.reg != nil {
		w.maxLive = make([]int64, len(p.cols))
	}
	if checked {
		err = verifyInput(f, first.Experiment, !rc.inSSA || rc.ssaVerified)
	}
	if err == nil {
		if w.tr != nil {
			w.before = obs.Snapshot(f)
		}
		w.visit(&p.root, f)
	}
	w.replay(f.Name, err == nil)
	if err != nil {
		return nil, err
	}
	return w.results, w.firstErr()
}

// walk is one job's run of a Plan on one function.
type walk struct {
	plan *Plan
	info *ssa.Info
	opts runOpts
	// m measures each node's pass; nothing is emitted until replay.
	m   meter
	reg *metrics.Registry
	tr  obs.Tracer
	// before is the function entering the walk, as RunStart reports it.
	before obs.IRStat
	// evs and errs hold each node's event (when measured) and failure.
	evs  []*obs.Event
	errs []error
	// results and maxLive hold each column's numbers, read at its end.
	results []*Result
	maxLive []int64
	// stack[d] holds the statistics of the prefix of d passes being
	// walked; Stats pointers are shared read-only with the columns that
	// end below it.
	stack []Result
	// ended, when set, sees each column's final function (export_test.go).
	ended func(col int, f *ir.Func)
}

// visit runs the subtrees of nd on f, which holds nd's output.
func (w *walk) visit(nd *node, f *ir.Func) {
	last := len(nd.children) - 1
	for i, c := range nd.children {
		if i == last {
			w.run(c, f)
			return
		}
		g := f.Snapshot()
		w.run(c, g)
		// Done with g: the next mutation of f may adopt the storage the
		// two still share instead of copying it.
		g.Release()
	}
}

// run runs nd's pass on f and, if it succeeds, finishes the columns
// that end at nd and visits nd's children.
func (w *walk) run(nd *node, f *ir.Func) {
	r := &w.stack[nd.seq+1]
	*r = w.stack[nd.seq]
	ev, err := step(f, w.info, r, w.plan.cols[nd.first].Experiment, nd.seq, &nd.pass, w.opts, w.m)
	if w.evs != nil {
		w.evs[nd.id] = ev
	}
	if err != nil {
		w.errs[nd.id] = err
		return
	}
	if len(nd.ends) > 0 {
		w.endColumns(nd, f, r)
	}
	w.visit(nd, f)
}

// endColumns reads the results of the columns that end at nd from f.
// When a child continues on f, the loop depths the reading recomputes
// are put back, so the child's events read the IR a run of its own
// column would.
func (w *walk) endColumns(nd *node, f *ir.Func, r *Result) {
	blocks := f.Blocks()
	var depths []int
	if len(nd.children) > 0 {
		depths = make([]int, len(blocks))
		for i, b := range blocks {
			depths[i] = b.LoopDepth
		}
	}
	end := *r
	maxLive := finish(f, &end, w.reg != nil)
	for _, ci := range nd.ends {
		res := end
		w.results[ci] = &res
		if w.maxLive != nil {
			w.maxLive[ci] = maxLive
		}
		if w.ended != nil {
			w.ended(ci, f)
		}
	}
	for i, d := range depths {
		blocks[i].LoopDepth = d
	}
}

// replay hands the walk's events to the registry and the tracer once
// per column, in column order, each column as the complete run a job
// of its own would have reported: RunStart, its passes in order under
// its label, and RunEnd unless one of them failed. A shared pass thus
// counts, and has its wall time observed, once per column through it;
// a column's run wall is the sum of its passes' walls. started is false
// when checked mode rejected the input, which begins no run.
func (w *walk) replay(fn string, started bool) {
	if w.reg == nil && w.tr == nil {
		return
	}
	for ci, col := range w.plan.cols {
		exp := col.Experiment
		if w.reg != nil {
			runCellsFor(w.reg, exp).runs.Inc()
		}
		if !started {
			continue
		}
		if w.tr != nil {
			w.tr.RunStart(fn, exp, w.before)
		}
		path := w.plan.paths[ci]
		var wall int64
		done := true
		for _, nd := range path {
			ev, err := w.evs[nd.id], w.errs[nd.id]
			if ev == nil {
				// Cancelled before this pass, or an earlier one failed.
				done = false
				break
			}
			e := *ev
			e.Config = exp
			emit(w.reg, w.tr, &e, err)
			wall += ev.WallNS
			if err != nil {
				done = false
				break
			}
		}
		if !done {
			continue
		}
		if w.tr != nil {
			w.tr.RunEnd(fn, exp, w.evs[path[len(path)-1].id].After, wall)
		}
		if w.reg != nil {
			runCellsFor(w.reg, exp).wall.Observe(wall)
			observeMaxLive(w.reg, w.maxLive[ci])
		}
	}
}

// firstErr returns the error of the first column without a result: the
// failure of the first failed pass on its path.
func (w *walk) firstErr() error {
	for ci, res := range w.results {
		if res != nil {
			continue
		}
		for _, nd := range w.plan.paths[ci] {
			if err := w.errs[nd.id]; err != nil {
				return err
			}
		}
	}
	return nil
}
