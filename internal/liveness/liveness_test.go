package liveness_test

import (
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/liveness"
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

func valByName(f *ir.Func, name string) ir.ValueID {
	for id := 0; id < f.NumValues(); id++ {
		if f.ValueName(ir.ValueID(id)) == name {
			return ir.ValueID(id)
		}
	}
	return ir.NoValue
}

func TestLivenessLoop(t *testing.T) {
	f := testprog.Loop()
	live := liveness.Compute(f)
	head := blockByName(f, "head")
	body := blockByName(f, "body")
	exit := blockByName(f, "exit")
	s := valByName(f, "s")
	i := valByName(f, "i")
	c := valByName(f, "c")

	if !live.LiveIn(s, head) || !live.LiveIn(i, head) {
		t.Error("s and i must be live into head")
	}
	if !live.LiveOut(s, body) || !live.LiveOut(i, body) {
		t.Error("s and i must be live out of body")
	}
	if live.LiveIn(c, head) {
		t.Error("c is defined in head before use; not live-in")
	}
	if live.LiveOut(s, exit) || live.LiveIn(i, exit) {
		t.Error("nothing live out of exit; i dead in exit")
	}
}

// TestPhiSemantics checks the paper's §3.2 definition: a φ argument not
// otherwise used is dead at the exit of the predecessor block and at the
// entry of the φ's block; the φ def is not live-in.
func TestPhiSemantics(t *testing.T) {
	bld := ir.NewBuilder("phisem")
	entry := bld.Block("entry")
	l := bld.Fn.NewBlock("l")
	r := bld.Fn.NewBlock("r")
	join := bld.Fn.NewBlock("join")

	c, x1, x2, x3 := bld.Val("c"), bld.Val("x1"), bld.Val("x2"), bld.Val("x3")
	bld.SetBlock(entry)
	bld.Input(c)
	bld.Br(c, l, r)
	bld.SetBlock(l)
	bld.Const(x1, 1)
	bld.Jump(join)
	bld.SetBlock(r)
	bld.Const(x2, 2)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(x3, x1, x2)
	bld.Output(x3)

	live := liveness.Compute(bld.Fn)
	if live.LiveOut(x1, l) {
		t.Error("φ use x1 must not be in LiveOut(l) (dead at exit of pred)")
	}
	if !live.ExitLiveSet(l).Has(int(x1)) {
		t.Error("φ use x1 must be in ExitLive(l) (live before the copy point)")
	}
	if live.LiveIn(x1, join) || live.LiveIn(x3, join) {
		t.Error("neither φ arg nor φ def may be live-in to the φ block")
	}
	if live.LiveOut(x3, l) || live.LiveOut(x3, r) {
		t.Error("φ def must not be live out of predecessors")
	}
}

// TestPhiArgLiveThrough: if the φ argument IS used elsewhere after the
// block, it stays live-out of the predecessor (Class 2 interference
// relies on this distinction).
func TestPhiArgLiveThrough(t *testing.T) {
	bld := ir.NewBuilder("phithrough")
	entry := bld.Block("entry")
	l := bld.Fn.NewBlock("l")
	r := bld.Fn.NewBlock("r")
	join := bld.Fn.NewBlock("join")

	c, x1, x2, x3, y := bld.Val("c"), bld.Val("x1"), bld.Val("x2"), bld.Val("x3"), bld.Val("y")
	bld.SetBlock(entry)
	bld.Input(c, x1)
	bld.Br(c, l, r)
	bld.SetBlock(l)
	bld.Jump(join)
	bld.SetBlock(r)
	bld.Const(x2, 2)
	bld.Jump(join)
	bld.SetBlock(join)
	bld.Phi(x3, x1, x2)
	bld.Binary(ir.Add, y, x3, x1) // x1 used after the φ
	bld.Output(y)

	live := liveness.Compute(bld.Fn)
	if !live.LiveOut(x1, l) || !live.LiveOut(x1, r) {
		t.Error("x1 used past the φ: must be live-out of both preds")
	}
	if !live.LiveIn(x1, join) {
		t.Error("x1 must be live-in to join (used by non-φ instruction)")
	}
}

// refLiveIn is the reference liveness, the path definition: v is live-in
// at block b iff some path from the top of b reaches a use of v (φ uses
// count at the end of the predecessor) before any def of v.
func refLiveIn(v ir.ValueID, b *ir.Block) bool {
	visited := make(map[*ir.Block]bool)
	var from func(*ir.Block) bool
	from = func(x *ir.Block) bool {
		if visited[x] {
			return false
		}
		visited[x] = true
		for _, in := range x.Instrs() {
			if in.Op() != ir.Phi {
				for _, u := range in.Uses() {
					if u.Val == v {
						return true
					}
				}
			}
			for _, d := range in.Defs() {
				if d.Val == v {
					return false
				}
			}
		}
		for si := 0; si < x.NumSuccs(); si++ {
			s := x.Succ(si)
			pi := s.PredIndex(x.ID)
			for _, phi := range s.Phis() {
				if phi.Use(pi) == v {
					return true
				}
			}
		}
		for si := 0; si < x.NumSuccs(); si++ {
			s := x.Succ(si)
			// φ defs of s kill v on that path.
			killed := false
			for _, phi := range s.Phis() {
				if phi.Def(0) == v {
					killed = true
				}
			}
			if !killed && from(s) {
				return true
			}
		}
		return false
	}
	return from(b)
}

func TestLiveAfter(t *testing.T) {
	f := testprog.Loop()
	live := liveness.Compute(f)
	body := blockByName(f, "body")
	s := valByName(f, "s")
	i := valByName(f, "i")
	// After "s = s + i" (index 0), both s and i are live (i used next).
	after0 := live.LiveAfter(body, 0)
	if !after0.Has(int(s)) || !after0.Has(int(i)) {
		t.Error("s and i must be live after the accumulation")
	}
}
