package cfg_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"outofssa/internal/cfg"
	"outofssa/internal/ir"
	"outofssa/internal/testprog"
)

func blockByName(f *ir.Func, name string) *ir.Block {
	for _, b := range f.Blocks() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func TestDominatorsDiamond(t *testing.T) {
	f := testprog.Diamond()
	dom := cfg.Dominators(f)
	entry := blockByName(f, "entry")
	left := blockByName(f, "left")
	right := blockByName(f, "right")
	join := blockByName(f, "join")

	if dom.Idom[entry.ID] != nil {
		t.Error("entry should have no idom")
	}
	for _, b := range []*ir.Block{left, right, join} {
		if dom.Idom[b.ID] != entry {
			t.Errorf("idom(%v) = %v, want entry", b, dom.Idom[b.ID])
		}
	}
	if !dom.Dominates(entry, join) || dom.Dominates(left, join) || dom.Dominates(join, left) {
		t.Error("dominance queries wrong on diamond")
	}
	if !dom.Dominates(join, join) {
		t.Error("dominance must be reflexive")
	}
	if dom.StrictlyDominates(join, join) {
		t.Error("strict dominance must be irreflexive")
	}
}

func TestDominatorsLoop(t *testing.T) {
	f := testprog.Loop()
	dom := cfg.Dominators(f)
	head := blockByName(f, "head")
	body := blockByName(f, "body")
	exit := blockByName(f, "exit")
	if dom.Idom[body.ID] != head || dom.Idom[exit.ID] != head {
		t.Error("loop idoms wrong")
	}
	if !dom.Dominates(head, body) || dom.Dominates(body, exit) {
		t.Error("loop dominance queries wrong")
	}
}

// Reference slow dominance: a dominates b iff removing a makes b
// unreachable from entry (for a != entry).
func slowDominates(f *ir.Func, a, b *ir.Block) bool {
	if a == b {
		return true
	}
	seen := make(map[*ir.Block]bool)
	var walk func(*ir.Block) bool
	walk = func(x *ir.Block) bool {
		if x == a {
			return false
		}
		if x == b {
			return true
		}
		if seen[x] {
			return false
		}
		seen[x] = true
		for _, sid := range x.Succs() {
			if walk(f.Block(sid)) {
				return true
			}
		}
		return false
	}
	return !walk(f.Entry())
}

func TestDominatorsAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		dom := cfg.Dominators(f)
		po := cfg.Postorder(f)
		for _, a := range po {
			for _, b := range po {
				want := slowDominates(f, a, b)
				got := dom.Dominates(a, b)
				if got != want {
					t.Fatalf("seed %d: Dominates(%v,%v) = %v, want %v", seed, a, b, got, want)
				}
			}
		}
	}
}

func TestDominanceFrontierDiamond(t *testing.T) {
	f := testprog.Diamond()
	dom := cfg.Dominators(f)
	df := cfg.DominanceFrontiers(f, dom)
	left := blockByName(f, "left")
	right := blockByName(f, "right")
	join := blockByName(f, "join")
	for _, b := range []*ir.Block{left, right} {
		if len(df[b.ID]) != 1 || df[b.ID][0] != join {
			t.Errorf("DF(%v) = %v, want [join]", b, df[b.ID])
		}
	}
	if len(df[join.ID]) != 0 {
		t.Errorf("DF(join) = %v, want empty", df[join.ID])
	}
}

func TestDominanceFrontierLoop(t *testing.T) {
	f := testprog.Loop()
	dom := cfg.Dominators(f)
	df := cfg.DominanceFrontiers(f, dom)
	head := blockByName(f, "head")
	body := blockByName(f, "body")
	// body's frontier is head (back edge); head's frontier is head itself.
	if len(df[body.ID]) != 1 || df[body.ID][0] != head {
		t.Errorf("DF(body) = %v, want [head]", df[body.ID])
	}
	found := false
	for _, b := range df[head.ID] {
		if b == head {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(head) = %v, should contain head", df[head.ID])
	}
}

// TestDominanceFrontiersMatchDefinition checks every frontier of random
// block graphs and of random programs in both loop shapes against the
// definition: Y is in DF(X) iff X dominates a predecessor of Y but does
// not strictly dominate Y. The per-join formulation looks only at blocks
// with two or more predecessors, which loses nothing except an entry
// block whose one predecessor is a back edge; random block graphs have
// those, so the definition skips them too. Each frontier lists its
// blocks once, by ascending ID, and is capped, so an append to one
// cannot write into the next.
func TestDominanceFrontiersMatchDefinition(t *testing.T) {
	var funcs []*ir.Func
	for seed := int64(0); seed < 300; seed++ {
		funcs = append(funcs, randomCFG(seed, 2+int(seed%12)))
	}
	for seed := int64(0); seed < 200; seed++ {
		opt := testprog.DefaultRandOptions()
		opt.BottomTestedLoops = seed%2 == 1
		funcs = append(funcs, testprog.Rand(seed, opt))
	}
	for _, f := range funcs {
		dom := cfg.Dominators(f)
		df := cfg.DominanceFrontiers(f, dom)
		for _, x := range f.Blocks() {
			var want []*ir.Block
			for _, y := range f.Blocks() {
				if y.NumPreds() < 2 || dom.StrictlyDominates(x, y) {
					continue
				}
				for _, p := range y.Preds() {
					if dom.Dominates(x, f.Block(p)) {
						want = append(want, y)
						break
					}
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
			got := df[x.ID]
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: DF(%v) = %v, want %v", f.Name, x, got, want)
			}
			if len(got) > 0 && cap(got) != len(got) {
				t.Fatalf("%s: DF(%v) has capacity %d beyond its %d blocks", f.Name, x, cap(got), len(got))
			}
		}
	}
}

func TestLoopDepth(t *testing.T) {
	f := testprog.NestedLoops()
	cfg.ComputeLoopDepth(f)
	want := map[string]int{
		"entry": 0, "ohead": 1, "ihead": 1, "ibody": 2, "then": 2,
		"els": 2, "ijoin": 2, "ilatch": 2, "olatch": 1, "exit": 0,
	}
	for name, d := range want {
		b := blockByName(f, name)
		if b.LoopDepth != d {
			t.Errorf("depth(%s) = %d, want %d", name, b.LoopDepth, d)
		}
	}
}

// refLoopDepth is the definition SetLoopDepth implements, one natural
// loop at a time: a block's depth is the number of distinct headers of
// the back edges whose natural loop contains it.
func refLoopDepth(f *ir.Func) map[ir.BlockID]int {
	dom := cfg.Dominators(f)
	reach := make(map[ir.BlockID]bool)
	for _, b := range cfg.Postorder(f) {
		reach[b.ID] = true
	}
	headers := make(map[ir.BlockID]map[ir.BlockID]bool)
	for _, b := range cfg.Postorder(f) {
		for _, sid := range b.Succs() {
			h := f.Block(sid)
			if !dom.Dominates(h, b) {
				continue
			}
			loop := map[ir.BlockID]bool{h.ID: true}
			stack := []ir.BlockID{}
			if !loop[b.ID] {
				loop[b.ID] = true
				stack = append(stack, b.ID)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range f.Block(x).Preds() {
					if reach[p] && !loop[p] {
						loop[p] = true
						stack = append(stack, p)
					}
				}
			}
			for id := range loop {
				if headers[id] == nil {
					headers[id] = make(map[ir.BlockID]bool)
				}
				headers[id][h.ID] = true
			}
		}
	}
	depth := make(map[ir.BlockID]int)
	for _, b := range f.Blocks() {
		depth[b.ID] = len(headers[b.ID])
	}
	return depth
}

// randomCFG builds a function over n blocks with random edges:
// irreducible loops, self-loops, parallel edges and unreachable blocks
// included. Only the block graph is meaningful.
func randomCFG(seed int64, n int) *ir.Func {
	rng := rand.New(rand.NewSource(seed))
	bld := ir.NewBuilder(fmt.Sprintf("cfg%d", seed))
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = bld.Block(fmt.Sprintf("b%d", i))
	}
	preds := make([][]ir.BlockID, n)
	for i, b := range blocks {
		var succs []ir.BlockID
		for k := rng.Intn(3); k > 0; k-- {
			s := blocks[rng.Intn(n)]
			succs = append(succs, s.ID)
			preds[s.ID] = append(preds[s.ID], b.ID)
		}
		blocks[i].SetSuccs(succs)
	}
	for i, b := range blocks {
		b.SetPreds(preds[i])
	}
	return bld.Fn
}

// TestSetLoopDepthMatchesReference holds SetLoopDepth, over the
// memoizable dominator tree, to the per-back-edge definition on random
// block graphs and random programs.
func TestSetLoopDepthMatchesReference(t *testing.T) {
	var funcs []*ir.Func
	for seed := int64(0); seed < 300; seed++ {
		funcs = append(funcs, randomCFG(seed, 2+int(seed%12)))
	}
	for seed := int64(0); seed < 50; seed++ {
		funcs = append(funcs, testprog.Rand(seed, testprog.DefaultRandOptions()))
	}
	funcs = append(funcs, testprog.NestedLoops())
	for _, f := range funcs {
		want := refLoopDepth(f)
		cfg.SetLoopDepth(f, cfg.Dominators(f))
		for _, b := range f.Blocks() {
			if b.LoopDepth != want[b.ID] {
				t.Fatalf("%s: depth(%v) = %d, want %d", f.Name, b, b.LoopDepth, want[b.ID])
			}
		}
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// head -> body/exit where head has 2 succs; in Loop, body and exit each
	// have 1 pred... build a real critical edge: br to a join with 2 preds.
	bld := ir.NewBuilder("crit")
	entry := bld.Block("entry")
	mid := bld.Fn.NewBlock("mid")
	join := bld.Fn.NewBlock("join")
	c := bld.Val("c")
	bld.SetBlock(entry)
	bld.Input(c)
	bld.Br(c, mid, join) // entry->join is critical (entry: 2 succs, join: 2 preds)
	bld.SetBlock(mid)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Output(c)

	if !hasCriticalEdge(bld.Fn) {
		t.Fatal("expected a critical edge")
	}
	n := cfg.SplitCriticalEdges(bld.Fn)
	if n != 1 {
		t.Fatalf("split %d edges, want 1", n)
	}
	if hasCriticalEdge(bld.Fn) {
		t.Fatal("critical edge remains after splitting")
	}
	if err := bld.Fn.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitCriticalEdgesPreservesSemantics(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		args := []int64{seed, seed * 3, 7}
		before, err := ir.Exec(f, args, 200000)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SplitCriticalEdges(f)
		if err := f.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after, err := ir.Exec(f, args, 400000)
		if err != nil {
			t.Fatal(err)
		}
		if !before.Equal(after) {
			t.Fatalf("seed %d: splitting changed behaviour", seed)
		}
	}
}

func TestRemoveUnreachable(t *testing.T) {
	bld := ir.NewBuilder("unreach")
	entry := bld.Block("entry")
	dead := bld.Fn.NewBlock("dead")
	exit := bld.Fn.NewBlock("exit")
	v := bld.Val("v")
	bld.SetBlock(entry)
	bld.Input(v)
	bld.Jump(exit)
	bld.SetBlock(dead)
	bld.Jump(exit)
	bld.SetBlock(exit)
	bld.Output(v)

	n := cfg.RemoveUnreachable(bld.Fn)
	if n != 1 {
		t.Fatalf("removed %d, want 1", n)
	}
	if exit.NumPreds() != 1 || exit.Pred(0) != entry {
		t.Fatalf("exit preds wrong after removal: %v", exit.Preds())
	}
	if err := bld.Fn.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPostorderProperties(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := testprog.Rand(seed, testprog.DefaultRandOptions())
		po := cfg.Postorder(f)
		rpo := cfg.ReversePostorder(f)
		if len(po) != len(rpo) {
			t.Fatal("orders disagree in length")
		}
		if rpo[0] != f.Entry() {
			t.Fatal("RPO must start at entry")
		}
		seen := make(map[*ir.Block]bool)
		for _, b := range po {
			if seen[b] {
				t.Fatal("duplicate block in postorder")
			}
			seen[b] = true
		}
	}
}

// hasCriticalEdge reports whether f contains an edge from a block with
// several successors to a block with several predecessors.
func hasCriticalEdge(f *ir.Func) bool {
	for _, b := range f.Blocks() {
		if b.NumSuccs() < 2 {
			continue
		}
		for _, sid := range b.Succs() {
			if f.Block(sid).NumPreds() > 1 {
				return true
			}
		}
	}
	return false
}
