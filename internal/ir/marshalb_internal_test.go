package ir

import (
	"strings"
	"testing"
)

// TestBinaryRejectsAliasedOperandSlots pins the b1 decoder's span
// check: no two operand spans may claim one slot. The first document
// is FuzzCompileHandler's reproducer: alias with instruction 2's def
// span moved onto instruction 1's. It used to decode, print as
// "add C = C, A", and crash SSA renaming, which rewrote the shared slot
// twice. Then every def or use span of a fixture is moved onto another
// instruction's def span in turn.
func TestBinaryRejectsAliasedOperandSlots(t *testing.T) {
	bld := NewBuilder("alias")
	bld.SetBlock(bld.Block("entry"))
	a, b, c, d := bld.Val("A"), bld.Val("B"), bld.Val("C"), bld.Val("D")
	bld.Input(a, b)
	bld.Binary(Add, c, a, b)
	bld.Binary(Add, d, c, a)
	bld.Output(d)
	w, err := extractArenas(bld.Fn)
	if err != nil {
		t.Fatal(err)
	}
	const defOff = 2
	if w.Instrs[7*1+defOff] != 2 || w.Instrs[7*2+defOff] != 5 {
		t.Fatalf("fixture layout moved: def spans at %d and %d, want 2 and 5", w.Instrs[7*1+defOff], w.Instrs[7*2+defOff])
	}
	w.Instrs[7*2+defOff] = 2
	if _, err := buildArenas(w); err == nil || !strings.Contains(err.Error(), "operand slot 2 claimed by two spans") {
		t.Fatalf("aliased def spans: err = %v, want the slot named", err)
	}

	f := buildSnapshotFixture(20)
	if _, err := buildArenas(mustExtract(t, f)); err != nil {
		t.Fatalf("pristine fixture rejected: %v", err)
	}
	n := f.NumInstrSlots()
	for i := 0; i < n; i++ {
		if f.Instr(InstrID(i)).NumDefs() == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			for _, off := range []int{2, 4} { // j's def span, then its use span
				w := mustExtract(t, f)
				if j == i || w.Instrs[7*j+off+1] == 0 {
					continue
				}
				w.Instrs[7*j+off] = w.Instrs[7*i+defOff]
				if _, err := buildArenas(w); err == nil {
					t.Fatalf("span %d of instruction %d moved onto instruction %d's defs: decoded without error", off, j, i)
				}
			}
		}
	}
}

func mustExtract(t *testing.T, f *Func) *arenaDoc {
	t.Helper()
	w, err := extractArenas(f)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
