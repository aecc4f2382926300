package parcopy_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"outofssa/internal/ir"
	"outofssa/internal/parcopy"
	"outofssa/internal/pipeline"
	"outofssa/internal/workload"
)

// buildParCopyFunc creates input(v0..vn-1); pcopy(perm); output(all).
func buildParCopyFunc(n int, dst, src []int) *ir.Func {
	bld := ir.NewBuilder("pc")
	bld.Block("entry")
	vals := make([]ir.ValueID, n)
	for i := range vals {
		vals[i] = bld.Val("")
	}
	bld.Input(vals...)
	pc := bld.Fn.NewInstr(ir.ParCopy, nil, nil)
	for i := range dst {
		pc.AddDef(ir.Operand{Val: vals[dst[i]]})
		pc.AddUse(ir.Operand{Val: vals[src[i]]})
	}
	bld.Cur.Append(pc)
	bld.Output(vals...)
	return bld.Fn
}

func runBoth(t *testing.T, n int, dst, src []int, args []int64) bool {
	t.Helper()
	ref := buildParCopyFunc(n, dst, src)
	want, err := ir.Exec(ref, args, 10000)
	if err != nil {
		t.Fatal(err)
	}
	f := buildParCopyFunc(n, dst, src)
	parcopy.Sequentialize(f)
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			if in.Op() == ir.ParCopy {
				t.Fatal("ParCopy survived sequentialization")
			}
		}
	}
	got, err := ir.Exec(f, args, 10000)
	if err != nil {
		t.Fatal(err)
	}
	return want.Equal(got)
}

func TestSwapCycle(t *testing.T) {
	// (a,b) = (b,a): a 2-cycle needs a temp, 3 copies.
	if !runBoth(t, 2, []int{0, 1}, []int{1, 0}, []int64{10, 20}) {
		t.Fatal("swap broken")
	}
	f := buildParCopyFunc(2, []int{0, 1}, []int{1, 0})
	n := parcopy.Sequentialize(f)
	if n != 3 {
		t.Fatalf("2-cycle lowered to %d copies, want 3", n)
	}
}

func TestLongCycle(t *testing.T) {
	// (a,b,c) = (c,a,b)
	if !runBoth(t, 3, []int{0, 1, 2}, []int{2, 0, 1}, []int64{1, 2, 3}) {
		t.Fatal("3-cycle broken")
	}
	f := buildParCopyFunc(3, []int{0, 1, 2}, []int{2, 0, 1})
	if n := parcopy.Sequentialize(f); n != 4 {
		t.Fatalf("3-cycle lowered to %d copies, want 4", n)
	}
}

func TestChain(t *testing.T) {
	// (a,b,c) = (b,c,c): chain, no cycle, no temp needed.
	if !runBoth(t, 3, []int{0, 1}, []int{1, 2}, []int64{1, 2, 3}) {
		t.Fatal("chain broken")
	}
	f := buildParCopyFunc(3, []int{0, 1}, []int{1, 2})
	if n := parcopy.Sequentialize(f); n != 2 {
		t.Fatalf("chain lowered to %d copies, want 2", n)
	}
}

func TestFanOut(t *testing.T) {
	// (a,b) = (c,c): one source feeding two destinations.
	if !runBoth(t, 3, []int{0, 1}, []int{2, 2}, []int64{5, 6, 7}) {
		t.Fatal("fan-out broken")
	}
}

func TestSelfCopiesDropped(t *testing.T) {
	f := buildParCopyFunc(2, []int{0, 1}, []int{0, 1})
	if n := parcopy.Sequentialize(f); n != 0 {
		t.Fatalf("self parallel copy emitted %d copies, want 0", n)
	}
}

// Property: an arbitrary parallel assignment (random dst permutation
// fragment, random sources) is sequentialized correctly.
func TestRandomAssignments(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		// Distinct destinations.
		perm := rng.Perm(n)
		k := 1 + rng.Intn(n)
		dst := perm[:k]
		src := make([]int, k)
		for i := range src {
			src[i] = rng.Intn(n)
		}
		args := make([]int64, n)
		for i := range args {
			args[i] = int64(rng.Intn(1000))
		}
		return runBoth(t, n, dst, src, args)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFullPermutationCycle rotates all n values through a single cycle:
// the worst case for the sequentializer, needing exactly one temp and
// n+1 copies, for several n.
func TestFullPermutationCycle(t *testing.T) {
	for n := 2; n <= 7; n++ {
		dst := make([]int, n)
		src := make([]int, n)
		args := make([]int64, n)
		for i := 0; i < n; i++ {
			dst[i] = i
			src[i] = (i + 1) % n
			args[i] = int64(100 + i)
		}
		if !runBoth(t, n, dst, src, args) {
			t.Fatalf("%d-cycle broken", n)
		}
		f := buildParCopyFunc(n, dst, src)
		if got := parcopy.Sequentialize(f); got != n+1 {
			t.Fatalf("%d-cycle lowered to %d copies, want %d (one temp)", n, got, n+1)
		}
	}
}

// TestCheckDetectsDuplicateDestination: the verifier-facing Check must
// reject a parallel copy writing one destination twice — the parallel
// semantics would be nondeterministic.
func TestCheckDetectsDuplicateDestination(t *testing.T) {
	f := buildParCopyFunc(3, []int{0, 1}, []int{1, 2})
	var pc *ir.Instr
	for _, in := range f.Blocks()[0].Instrs() {
		if in.Op() == ir.ParCopy {
			pc = in
		}
	}
	if err := parcopy.Check(pc); err != nil {
		t.Fatalf("valid parallel copy rejected: %v", err)
	}
	pc.SetDefVal(1, pc.Def(0)) // (a, a) = (b, c)
	if err := parcopy.Check(pc); err == nil {
		t.Fatal("duplicated destination not detected")
	}
}

// TestCheckDetectsArityMismatch: a destination without a paired source
// (or vice versa) must be rejected before Lower indexes out of range.
func TestCheckDetectsArityMismatch(t *testing.T) {
	f := buildParCopyFunc(3, []int{0, 1}, []int{1, 2})
	var pc *ir.Instr
	for _, in := range f.Blocks()[0].Instrs() {
		if in.Op() == ir.ParCopy {
			pc = in
		}
	}
	for pc.NumUses() > 1 {
		pc.RemoveUseAt(pc.NumUses() - 1)
	}
	if err := parcopy.Check(pc); err == nil {
		t.Fatal("def/use arity mismatch not detected")
	}
}

// TestCheckAllowsSelfCopy: a self copy (a = a) is legal — the
// sequentializer simply drops it.
func TestCheckAllowsSelfCopy(t *testing.T) {
	f := buildParCopyFunc(2, []int{0, 1}, []int{0, 1})
	for _, in := range f.Blocks()[0].Instrs() {
		if in.Op() == ir.ParCopy {
			if err := parcopy.Check(in); err != nil {
				t.Fatalf("self copy rejected: %v", err)
			}
		}
	}
}

// Mixed cycles and chains in one parallel copy.
func TestCycleAndChainMix(t *testing.T) {
	// (a,b,c,d) = (b,a,a,c): swap a<->b plus chain into c,d.
	if !runBoth(t, 4, []int{0, 1, 2, 3}, []int{1, 0, 0, 2}, []int64{1, 2, 3, 4}) {
		t.Fatal("mixed parallel copy broken")
	}
}

// refSequentialize is the reference lowering, the one Sequentialize
// replaced: a fresh pending list and output list for every parallel
// copy (refLower), and the same emission order.
func refSequentialize(f *ir.Func) int {
	emitted := 0
	for _, b := range f.Blocks() {
		for idx := 0; idx < b.NumInstrs(); idx++ {
			in := b.Instr(idx)
			if in.Op() != ir.ParCopy {
				continue
			}
			seq := refLower(f, in)
			b.RemoveAt(idx)
			for k, c := range seq {
				b.InsertAt(idx+k, c)
			}
			idx += len(seq) - 1
			emitted += len(seq)
		}
	}
	return emitted
}

// refLower returns the sequential Copy list equivalent to the parallel
// copy pc. The algorithm repeatedly emits copies whose destination is
// not a pending source; when none exists every pending destination is
// also a source — a cycle — which is broken by saving one destination
// to a fresh temporary.
func refLower(f *ir.Func, pc *ir.Instr) []*ir.Instr {
	type cp struct{ dst, src ir.ValueID }
	var pending []cp
	for i := 0; i < pc.NumDefs(); i++ {
		d, s := pc.Def(i), pc.Use(i)
		if d != s {
			pending = append(pending, cp{d, s})
		}
	}
	var out []*ir.Instr
	emit := func(d, s ir.ValueID) {
		out = append(out, f.NewInstr(ir.Copy,
			[]ir.Operand{{Val: d}}, []ir.Operand{{Val: s}}))
	}
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); {
			d := pending[i].dst
			isSrc := false
			for j, p := range pending {
				if j != i && p.src == d {
					isSrc = true
					break
				}
			}
			if isSrc {
				i++
				continue
			}
			emit(d, pending[i].src)
			pending = append(pending[:i], pending[i+1:]...)
			progress = true
		}
		if !progress && len(pending) > 0 {
			// Pure cycle(s): break one by parking a destination in a temp.
			tmp := f.NewValue("")
			broken := pending[0]
			emit(tmp, broken.dst)
			for j := range pending {
				if pending[j].src == broken.dst {
					pending[j].src = tmp
				}
			}
		}
	}
	return out
}

// sameLowering describes the first difference between got, lowered by
// Sequentialize, and want, a clone of its input lowered by
// refSequentialize: the printed IR, the values (the temporaries, in
// creation order), and every block's instruction handles (the copies,
// in creation order), or "" if there is none.
func sameLowering(got, want *ir.Func) string {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("%s: printed IR differs\ngot:\n%s\nwant:\n%s", got.Name, g, w)
	}
	if got.NumValues() != want.NumValues() || got.NumInstrSlots() != want.NumInstrSlots() {
		return fmt.Sprintf("%s: %d values and %d instruction slots, want %d and %d", got.Name,
			got.NumValues(), got.NumInstrSlots(), want.NumValues(), want.NumInstrSlots())
	}
	for id := 0; id < got.NumValues(); id++ {
		if g, w := got.ValueName(ir.ValueID(id)), want.ValueName(ir.ValueID(id)); g != w {
			return fmt.Sprintf("%s: value %d is %s, want %s", got.Name, id, g, w)
		}
	}
	for i, b := range got.Blocks() {
		if g, w := b.InstrIDs(), want.Blocks()[i].InstrIDs(); !slices.Equal(g, w) {
			return fmt.Sprintf("%s: block %v holds instructions %v, want %v", got.Name, b, g, w)
		}
	}
	return ""
}

// randomParCopies builds a function over 1-16 values with several
// blocks of parallel copies, each a chain, one source fanned out,
// disjoint cycles (a random permutation), all self copies, or random
// distinct destinations with random sources, which mixes all of them.
func randomParCopies(seed int64) *ir.Func {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(16)
	bld := ir.NewBuilder(fmt.Sprintf("pc%d", seed))
	bld.Block("entry")
	vals := make([]ir.ValueID, n)
	for i := range vals {
		vals[i] = bld.Val("")
	}
	bld.Input(vals...)
	for blk := 1 + rng.Intn(3); blk > 0; blk-- {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			var dst, src []int
			switch rng.Intn(5) {
			case 0: // chain: v0 <- v1 <- ... <- vm
				for i := 0; i+1 < n; i++ {
					dst, src = append(dst, i), append(src, i+1)
				}
			case 1: // fan-out of one source
				s := rng.Intn(n)
				for _, d := range rng.Perm(n)[:1+rng.Intn(n)] {
					dst, src = append(dst, d), append(src, s)
				}
			case 2: // disjoint cycles, and the fixed points as self copies
				perm := rng.Perm(n)
				for d, s := range perm {
					dst, src = append(dst, d), append(src, s)
				}
			case 3: // self copies only
				for i := 0; i < n; i++ {
					dst, src = append(dst, i), append(src, i)
				}
			default:
				for _, d := range rng.Perm(n)[:1+rng.Intn(n)] {
					dst, src = append(dst, d), append(src, rng.Intn(n))
				}
			}
			pc := bld.Fn.NewInstr(ir.ParCopy, nil, nil)
			for i := range dst {
				pc.AddDef(ir.Operand{Val: vals[dst[i]]})
				pc.AddUse(ir.Operand{Val: vals[src[i]]})
			}
			bld.Cur.Append(pc)
		}
		if blk > 1 {
			next := bld.Fn.NewBlock("")
			bld.Jump(next)
			bld.SetBlock(next)
		}
	}
	bld.Output(vals...)
	return bld.Fn
}

// TestSequentializeMatchesReference holds Sequentialize, whose lists are
// reused across the parallel copies of a call, to the reference
// lowering: on random parallel copies, and on every parallel copy
// lowered in every preset over the 228 suite functions, both must emit
// the same copies and create the same temporaries, in the same order.
// It must not run in parallel with other tests of the package.
func TestSequentializeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		f := randomParCopies(seed)
		ref := f.Clone()
		got, want := parcopy.Sequentialize(f), refSequentialize(ref)
		if got != want {
			t.Fatalf("%s: %d copies emitted, want %d", f.Name, got, want)
		}
		if d := sameLowering(f, ref); d != "" {
			t.Fatal(d)
		}
	}

	var mismatch string
	calls, parCopies := 0, 0
	defer parcopy.SetTwin(func(f *ir.Func) func() {
		ref := f.Clone()
		for _, b := range ref.Blocks() {
			for _, in := range b.Instrs() {
				if in.Op() == ir.ParCopy {
					parCopies++
				}
			}
		}
		refSequentialize(ref)
		return func() {
			if d := sameLowering(f, ref); d != "" && mismatch == "" {
				mismatch = d
			}
			calls++
		}
	})()
	var funcs []*ir.Func
	for _, s := range workload.All() {
		funcs = append(funcs, s.Funcs...)
	}
	if len(funcs) != 228 {
		t.Fatalf("%d suite functions, want 228", len(funcs))
	}
	for _, name := range pipeline.Presets() {
		for _, src := range funcs {
			if _, err := pipeline.Run(src.Clone(), pipeline.Configs[name]); err != nil {
				t.Fatalf("%s under %s: %v", src.Name, name, err)
			}
			if mismatch != "" {
				t.Fatalf("under %s: %s", name, mismatch)
			}
		}
	}
	if parCopies == 0 {
		t.Fatal("no parallel copy was lowered")
	}
	t.Logf("%d Sequentialize calls lowered %d parallel copies as the reference does", calls, parCopies)
}
