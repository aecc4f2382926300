package ir

import (
	"fmt"
	"strings"
)

// ReferenceString is the fmt-based printer that Func.String replaced:
// one fmt.Fprintf per block header and instruction, and a fresh
// builder per instruction. Func.String must render every function
// byte for byte as it does.
func ReferenceString(f *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".func %s\n", f.Name)
	for _, blk := range f.Blocks() {
		fmt.Fprintf(&b, "%s:", blk)
		if blk.NumPreds() > 0 {
			b.WriteString(" ; preds=")
			for i, p := range blk.Preds() {
				if i > 0 {
					b.WriteString(",")
				}
				b.WriteString(f.Block(p).String())
			}
		}
		if blk.LoopDepth > 0 {
			fmt.Fprintf(&b, " depth=%d", blk.LoopDepth)
		}
		b.WriteString("\n")
		for _, in := range blk.Instrs() {
			fmt.Fprintf(&b, "\t%s", ReferenceInstrString(in))
			switch in.Op() {
			case Br:
				fmt.Fprintf(&b, " -> %s, %s", blk.Succ(0), blk.Succ(1))
			case Jump:
				fmt.Fprintf(&b, " -> %s", blk.Succ(0))
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, ".endfunc\n")
	return b.String()
}

// ReferenceInstrString is the Instr.String that writeTo replaced.
func ReferenceInstrString(in *Instr) string {
	var b strings.Builder
	f := in.fn
	operand := func(o Operand) string {
		if o.Pinned() {
			return f.VStr(o.Val) + "^" + f.VStr(o.Pin())
		}
		return f.VStr(o.Val)
	}
	b.WriteString(in.op.String())
	sep := " "
	for _, d := range in.Defs() {
		b.WriteString(sep)
		b.WriteString(operand(d))
		sep = ", "
	}
	if in.defLen > 0 && in.useLen > 0 {
		b.WriteString(" =")
		sep = " "
	}
	for _, u := range in.Uses() {
		b.WriteString(sep)
		b.WriteString(operand(u))
		sep = ", "
	}
	switch in.op {
	case Const, Make, More, AutoAdd:
		b.WriteString(sep)
		b.WriteString(itoa64(in.Imm))
	case Call:
		b.WriteString(sep)
		b.WriteString("@" + in.Callee)
	}
	return b.String()
}
