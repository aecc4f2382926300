package ir

import (
	"strconv"
	"strings"
)

// String renders the function in a LAI-like textual form. It writes
// into one builder, presized from the function's instruction and block
// counts.
func (f *Func) String() string {
	var b strings.Builder
	b.Grow(64 + 32*len(f.blockList) + 24*f.NumInstrs())
	b.WriteString(".func ")
	b.WriteString(f.Name)
	b.WriteByte('\n')
	for _, blk := range f.Blocks() {
		b.WriteString(blk.String())
		b.WriteByte(':')
		if blk.NumPreds() > 0 {
			b.WriteString(" ; preds=")
			for i, p := range blk.Preds() {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(f.Block(p).String())
			}
		}
		if blk.LoopDepth > 0 {
			b.WriteString(" depth=")
			writeInt(&b, int64(blk.LoopDepth))
		}
		b.WriteByte('\n')
		for _, in := range blk.Instrs() {
			b.WriteByte('\t')
			in.writeTo(&b)
			switch in.Op() {
			case Br:
				b.WriteString(" -> ")
				b.WriteString(blk.Succ(0).String())
				b.WriteString(", ")
				b.WriteString(blk.Succ(1).String())
			case Jump:
				b.WriteString(" -> ")
				b.WriteString(blk.Succ(0).String())
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString(".endfunc\n")
	return b.String()
}

func (in *Instr) String() string {
	var b strings.Builder
	b.Grow(32)
	in.writeTo(&b)
	return b.String()
}

// writeTo renders the instruction as the printer does: the opcode, the
// defs, " =" and the uses when there are both, then the immediate or
// callee.
func (in *Instr) writeTo(b *strings.Builder) {
	f := in.fn
	b.WriteString(in.op.String())
	sep := " "
	for _, d := range in.Defs() {
		b.WriteString(sep)
		f.writeOperand(b, d)
		sep = ", "
	}
	if in.defLen > 0 && in.useLen > 0 {
		b.WriteString(" =")
		sep = " "
	}
	for _, u := range in.Uses() {
		b.WriteString(sep)
		f.writeOperand(b, u)
		sep = ", "
	}
	switch in.op {
	case Const, Make, More, AutoAdd:
		b.WriteString(sep)
		writeInt(b, in.Imm)
	case Call:
		b.WriteString(sep)
		b.WriteByte('@')
		b.WriteString(in.Callee)
	}
}

// writeOperand renders an operand: "val" or "val^pin".
func (f *Func) writeOperand(b *strings.Builder, o Operand) {
	b.WriteString(f.VStr(o.Val))
	if o.Pinned() {
		b.WriteByte('^')
		b.WriteString(f.VStr(o.Pin()))
	}
}

// writeInt writes v in decimal.
func writeInt(b *strings.Builder, v int64) {
	var digits [20]byte
	b.Write(strconv.AppendInt(digits[:0], v, 10))
}
