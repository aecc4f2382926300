package pin_test

import (
	"math/bits"
	"runtime/debug"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/pin"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
)

func TestResourcesFromDefPins(t *testing.T) {
	bld := ir.NewBuilder("res")
	f := bld.Fn
	bld.Block("entry")
	a, b, c := bld.Val("a"), bld.Val("b"), bld.Val("c")
	in := bld.Input(a, b)
	in.SetDefPin(0, f.Target.R[0])
	bld.Binary(ir.Add, c, a, b)
	bld.Output(c)

	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Find(a) != f.Target.R[0] {
		t.Fatalf("a's resource = %v, want R0", res.Find(a))
	}
	if res.Find(b) != b || res.Find(c) != c {
		t.Fatal("unpinned values must be their own resource")
	}
	if !f.IsPhys(res.Find(a)) || f.IsPhys(res.Find(b)) {
		t.Fatal("physical resource wrong")
	}
}

func TestUnionPhysicalConflict(t *testing.T) {
	f := ir.NewFunc("u")
	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatal(err)
	}
	v := f.NewValue("v")
	if _, err := res.Union(v, f.Target.R[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Union(v, f.Target.R[1]); err == nil {
		t.Fatal("merging R0 and R1 through v must fail")
	}
	// Physical register must be the representative.
	if res.Find(v) != f.Target.R[0] {
		t.Fatal("physical register must root its class")
	}
}

func TestMembersSorted(t *testing.T) {
	f := ir.NewFunc("m")
	res, _ := pin.NewResources(f)
	vs := []ir.ValueID{f.NewValue("x"), f.NewValue("y"), f.NewValue("z")}
	res.Union(vs[2], vs[0])
	res.Union(vs[1], vs[0])
	m := res.Members(vs[0])
	if len(m) != 3 {
		t.Fatalf("members = %v", m)
	}
	for i := 1; i < len(m); i++ {
		if m[i] <= m[i-1] {
			t.Fatal("members not in ID order")
		}
	}
	for _, v := range vs {
		if res.Find(v) != res.Find(vs[0]) {
			t.Fatal("union incomplete")
		}
	}
}

// TestMembersAllocatesNothing pins that Members of a multi-member class
// returns the class's own sorted list, without copying or sorting, and
// that a singleton's list allocates nothing either.
func TestMembersAllocatesNothing(t *testing.T) {
	f := ir.NewFunc("m")
	res, _ := pin.NewResources(f)
	vs := []ir.ValueID{f.NewValue("x"), f.NewValue("y"), f.NewValue("z")}
	res.Union(vs[2], vs[0])
	res.Union(vs[1], f.Target.R[0])
	res.Union(vs[1], vs[2])
	if got := res.Members(vs[0]); len(got) != 4 {
		t.Fatalf("members = %v, want 4", got)
	}
	if n := testing.AllocsPerRun(100, func() { res.Members(vs[0]) }); n != 0 {
		t.Fatalf("Members allocates %.1f times per call, want 0", n)
	}
	w := f.NewValue("w") // admitted after the Resources was built
	if got := res.Members(w); len(got) != 1 || got[0] != w {
		t.Fatalf("singleton members = %v, want [%v]", got, w)
	}
	if n := testing.AllocsPerRun(100, func() { res.Members(w) }); n != 0 {
		t.Fatalf("singleton Members allocates %.1f times per call, want 0", n)
	}
}

func TestCollectSP(t *testing.T) {
	f := testprog.WithCallsAndStack()
	info := ssa.MustBuild(f)
	pin.CollectSP(f, info)
	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for id := 0; id < f.NumValues(); id++ {
		v := ir.ValueID(id)
		if info.OrigPhys(v) == f.Target.SP {
			found = true
			if res.Find(v) != f.Target.SP {
				t.Fatalf("SP-derived %v not pinned to SP", f.VStr(v))
			}
		}
	}
	if !found {
		t.Fatal("no SP-derived values")
	}
}

func TestCollectABI(t *testing.T) {
	f := testprog.WithCallsAndStack()
	info := ssa.MustBuild(f)
	pin.CollectSP(f, info)
	pin.CollectABI(f)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			switch {
			case in.Op() == ir.Input:
				for i := 0; i < int(in.Imm) && i < len(f.Target.ArgRegs); i++ {
					want := f.Target.ArgRegs[i]
					if got := in.DefOp(i).Pin(); got != want && got != f.Target.SP {
						t.Fatalf("input def %d pinned to %v, want %v", i, f.VStr(got), f.VStr(want))
					}
				}
			case in.Op() == ir.Call:
				for i := 0; i < in.NumUses(); i++ {
					if i < len(f.Target.ArgRegs) && in.UseOp(i).Pin() != f.Target.ArgRegs[i] {
						t.Fatalf("call arg %d not pinned", i)
					}
				}
				for i := 0; i < in.NumDefs(); i++ {
					if i < len(f.Target.RetRegs) && in.DefOp(i).Pin() != f.Target.RetRegs[i] {
						t.Fatalf("call result %d not pinned", i)
					}
				}
			case in.Op() == ir.Output:
				if in.NumUses() > 0 && in.UseOp(0).Pin() != f.Target.RetRegs[0] {
					t.Fatal("output not pinned to R0")
				}
			case in.Op().IsTwoOperand():
				dst := in.DefOp(0).Pin()
				if dst == ir.NoValue {
					dst = in.Def(0)
				}
				if in.UseOp(0).Pin() != dst {
					t.Fatalf("2-operand tie not pinned: %v", in)
				}
			}
		}
	}
}

// TestCollectABIRespectsSP: the implicit SP definition on .input must not
// receive an argument-register pin.
func TestCollectABIRespectsSP(t *testing.T) {
	f := testprog.WithCallsAndStack()
	info := ssa.MustBuild(f)
	pin.CollectSP(f, info)
	pin.CollectABI(f)
	for _, in := range f.Entry().Instrs() {
		if in.Op() != ir.Input {
			continue
		}
		for _, d := range in.Defs() {
			if info.OrigPhys(d.Val) == f.Target.SP && d.Pin() != f.Target.SP {
				t.Fatalf("SP def pinned to %v", f.VStr(d.Pin()))
			}
		}
	}
}

// ---- Figure 4 pin-correctness cases ----

func TestPinCorrectnessCases(t *testing.T) {
	r0 := func(f *ir.Func) ir.ValueID { return f.Target.R[0] }

	t.Run("case1_two_defs_same_resource", func(t *testing.T) {
		bld := ir.NewBuilder("c1")
		bld.Block("entry")
		x, y := bld.Val("x"), bld.Val("y")
		call := bld.Call("f", []ir.ValueID{x, y})
		call.SetDefPin(0, r0(bld.Fn))
		call.SetDefPin(1, r0(bld.Fn))
		bld.Output(x)
		res, err := pin.NewResources(bld.Fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := pin.Validate(bld.Fn, res); err == nil {
			t.Fatal("two defs pinned to one resource must be rejected")
		}
	})

	t.Run("case2_two_uses_same_resource", func(t *testing.T) {
		bld := ir.NewBuilder("c2")
		bld.Block("entry")
		x, y, d := bld.Val("x"), bld.Val("y"), bld.Val("d")
		bld.Input(x, y)
		call := bld.Call("f", []ir.ValueID{d}, x, y)
		call.SetUsePin(0, r0(bld.Fn))
		call.SetUsePin(1, r0(bld.Fn))
		bld.Output(d)
		res, err := pin.NewResources(bld.Fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := pin.Validate(bld.Fn, res); err == nil {
			t.Fatal("two different values pinned to one resource at one instruction must be rejected")
		}
	})

	t.Run("case3_two_phi_defs_same_block", func(t *testing.T) {
		bld := ir.NewBuilder("c3")
		entry := bld.Block("entry")
		l := bld.Fn.NewBlock("l")
		r := bld.Fn.NewBlock("r")
		join := bld.Fn.NewBlock("join")
		c, a1, a2, b1, b2, x, y := bld.Val("c"), bld.Val("a1"), bld.Val("a2"), bld.Val("b1"), bld.Val("b2"), bld.Val("x"), bld.Val("y")
		bld.SetBlock(entry)
		bld.Input(c)
		bld.Br(c, l, r)
		bld.SetBlock(l)
		bld.Const(a1, 1)
		bld.Const(b1, 2)
		bld.Jump(join)
		bld.SetBlock(r)
		bld.Const(a2, 3)
		bld.Const(b2, 4)
		bld.Jump(join)
		bld.SetBlock(join)
		p1 := bld.Phi(x, a1, a2)
		p2 := bld.Phi(y, b1, b2)
		p1.SetDefPin(0, r0(bld.Fn))
		p2.SetDefPin(0, r0(bld.Fn))
		z := bld.Val("z")
		bld.Binary(ir.Add, z, x, y)
		bld.Output(z)
		res, err := pin.NewResources(bld.Fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := pin.Validate(bld.Fn, res); err == nil {
			t.Fatal("two φ defs of one block pinned to one resource must be rejected")
		}
	})

	t.Run("case4_def_use_same_resource_ok", func(t *testing.T) {
		bld := ir.NewBuilder("c4")
		bld.Block("entry")
		x, y := bld.Val("x"), bld.Val("y")
		bld.Input(x)
		ad := bld.AutoAdd(y, x, 1)
		ad.SetDefPin(0, r0(bld.Fn))
		ad.SetUsePin(0, r0(bld.Fn))
		bld.Output(y)
		res, err := pin.NewResources(bld.Fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := pin.Validate(bld.Fn, res); err != nil {
			t.Fatalf("def+use sharing a resource is the legal 2-operand pinning: %v", err)
		}
	})

	t.Run("case5_phi_arg_pinned_elsewhere", func(t *testing.T) {
		bld := ir.NewBuilder("c5")
		entry := bld.Block("entry")
		l := bld.Fn.NewBlock("l")
		r := bld.Fn.NewBlock("r")
		join := bld.Fn.NewBlock("join")
		c, a1, a2, x := bld.Val("c"), bld.Val("a1"), bld.Val("a2"), bld.Val("x")
		bld.SetBlock(entry)
		bld.Input(c)
		bld.Br(c, l, r)
		bld.SetBlock(l)
		bld.Const(a1, 1)
		bld.Jump(join)
		bld.SetBlock(r)
		bld.Const(a2, 2)
		bld.Jump(join)
		bld.SetBlock(join)
		p := bld.Phi(x, a1, a2)
		p.SetDefPin(0, r0(bld.Fn))
		p.SetUsePin(0, bld.Fn.Target.R[1]) // s != r: forbidden
		bld.Output(x)
		res, err := pin.NewResources(bld.Fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := pin.Validate(bld.Fn, res); err == nil {
			t.Fatal("φ argument pinned to a different resource than the result must be rejected")
		}
	})
}

func TestRepinDefs(t *testing.T) {
	f := testprog.Diamond()
	ssa.Build(f)
	res, err := pin.NewResources(f)
	if err != nil {
		t.Fatal(err)
	}
	// Merge the φ web by hand, then repin.
	var phi *ir.Instr
	for _, b := range f.Blocks() {
		for _, p := range b.Phis() {
			phi = p
			break
		}
	}
	if phi == nil {
		t.Fatal("no φ")
	}
	for _, u := range phi.Uses() {
		if _, err := res.Union(phi.Def(0), u.Val); err != nil {
			t.Fatal(err)
		}
	}
	pin.RepinDefs(f, res)
	root := res.Find(phi.Def(0))
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for _, d := range in.Defs() {
				if res.Find(d.Val) == res.Find(root) && d.Val != root && d.Pin() != root {
					t.Fatalf("def of %v not repinned to %v", f.VStr(d.Val), f.VStr(root))
				}
			}
		}
	}
}

func TestCollectPhiCSSA(t *testing.T) {
	f := testprog.Diamond()
	ssa.Build(f)
	res, unpinned, err := pin.CollectPhiCSSA(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unpinned != 0 {
		t.Fatalf("unpinned = %d, want 0", unpinned)
	}
	for _, b := range f.Blocks() {
		for _, phi := range b.Phis() {
			for _, u := range phi.Uses() {
				if res.Find(phi.Def(0)) != res.Find(u.Val) {
					t.Fatalf("φ web not unified: %v vs %v", f.VStr(phi.Def(0)), f.VStr(u.Val))
				}
			}
		}
	}
}

// TestResourcesAllocsBounded: NewResources followed by k Unions
// allocates as often whatever k is, apart from the doublings of the
// slab that holds the class lists. The unions grow one class by one
// value at a time, the worst case for the lists: the i-th writes a list
// of i+1 members, so k unions write k(k+3)/2 entries after the n
// initial ones, and the slab, starting with room for those n, doubles
// at most ceil(log2(total/n)) times. The garbage collector is off while
// it measures: a cycle that a large allocation starts can add the
// runtime's own allocations to the count.
func TestResourcesAllocsBounded(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f := ir.NewFunc("chain")
	vals := make([]ir.ValueID, 1000)
	for i := range vals {
		vals[i] = f.NewValue("")
	}
	n := f.NumValues()
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := pin.NewResources(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals[1 : k+1] {
				res.Union(vals[0], v)
			}
		})
	}
	base := allocs(0)
	for _, k := range []int{1, 10, 100, 999} {
		total := n + k*(k+3)/2
		doublings := bits.Len(uint((total - 1) / n))
		if got := allocs(k); got > base+float64(doublings) {
			t.Errorf("NewResources and %d Unions: %.0f allocations, want at most %.0f (no unions) + %d slab doublings",
				k, got, base, doublings)
		}
	}
}
