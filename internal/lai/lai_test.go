package lai_test

import (
	"strings"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/pipeline"
)

const fig1 = `
.func fig1
.input C:R0, P:P0
entry:
    load    A, @P
    autoadd Q, P, 1
    load    B, @Q
    call    D = f(A, B)
    add     E, C, D
    make    L, 0x00A1
    more    K, L, 0x2BFA
    sub     F, E, K
    ret     F
.endfunc
`

func TestParseFigure1(t *testing.T) {
	f, err := lai.Parse(fig1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "fig1" {
		t.Fatalf("name = %q", f.Name)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// The .input pins must be present.
	in := f.Entry().Instr(0)
	if in.Op() != ir.Input || in.DefOp(0).Pin() != f.Target.R[0] || in.DefOp(1).Pin() != f.Target.P[0] {
		t.Fatalf("input pins wrong: %v", in)
	}
	res, err := ir.Exec(f, []int64{7, 1000}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs: %v", res.Outputs)
	}
	// F = (C + f(A,B)) - 0x00A12BFA must depend on C.
	res2, _ := ir.Exec(f, []int64{8, 1000}, 1000)
	if res.Outputs[0]+1 != res2.Outputs[0] {
		t.Fatalf("F must be C-linear: %v vs %v", res.Outputs, res2.Outputs)
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
.func loop
.input n
entry:
    const i, 0
    const s, 0
    const one, 1
head:
    blt i, n, body
    ret s
body:
    add s, s, i
    add i, i, one
    jump head
.endfunc
`
	f, err := lai.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n < 8; n++ {
		res, err := ir.Exec(f, []int64{n}, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if want := n * (n - 1) / 2; res.Outputs[0] != want {
			t.Fatalf("loop(%d) = %d, want %d", n, res.Outputs[0], want)
		}
	}
}

func TestParseBranchBothTargets(t *testing.T) {
	src := `
.func abs
.input x
entry:
    const zero, 0
    cmplt neg, x, zero
    br neg, negate, done
negate:
    neg x, x
    jump done
done:
    ret x
.endfunc
`
	f, err := lai.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ in, want int64 }{{5, 5}, {-5, 5}, {0, 0}} {
		res, err := ir.Exec(f, []int64{c.in}, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs[0] != c.want {
			t.Fatalf("abs(%d) = %d", c.in, res.Outputs[0])
		}
	}
}

func TestParseMultipleFunctions(t *testing.T) {
	src := fig1 + "\n" + fig1
	fs, err := lai.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("parsed %d functions, want 2", len(fs))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		".func f\nentry:\n  bogus a, b\n.endfunc",
		".func f\nentry:\n  jump nowhere\n.endfunc",
		".func f\nentry:\n  add a\n.endfunc",
		"not a function",
		".func f\nentry:\n  const a, zz\n.endfunc",
	}
	for _, src := range cases {
		if _, err := lai.Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestVerifyErrorNamesFunctionOnce: a structural error of a parsed
// function reads as Func.Verify reports it, which starts with the
// function's name, behind the package prefix alone.
func TestVerifyErrorNamesFunctionOnce(t *testing.T) {
	const src = ".func entryloop\n.input five:R0\nentry:\n    const  one, 1\n    add    b, b, one\n    blt    b, five, entry\n    ret    b\n"
	const want = "lai: entryloop: entry block entry has predecessors"
	if _, err := lai.Parse(src); err == nil || err.Error() != want {
		t.Fatalf("lai.Parse = %v, want %q", err, want)
	}
}

func TestParsedThroughPipeline(t *testing.T) {
	f, err := lai.Parse(fig1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ir.Exec(f, []int64{7, 50}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lai.Parse(fig1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(g, pipeline.Configs[pipeline.ExpLphiABIC])
	if err != nil {
		t.Fatal(err)
	}
	got, err := ir.Exec(g, []int64{7, 50}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("pipeline changed parsed program:\n%s", g)
	}
	// Figure 1 is fully pinnable: straight-line, no interference on the
	// constrained slots — with ABI pinning nothing should remain except
	// at most the C-in-R0 vs D-in-R0 conflict repair.
	if res.Moves > 2 {
		t.Fatalf("too many moves (%d) for figure 1:\n%s", res.Moves, g)
	}
	_ = strings.TrimSpace
}
