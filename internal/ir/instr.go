package ir

// Op is an instruction opcode. The set is a small ST120-flavoured subset:
// enough arithmetic and memory traffic to write realistic DSP kernels,
// plus the constrained instructions the paper's evaluation depends on
// (2-operand autoadd/more, ABI-constrained call/input/output).
type Op uint16

const (
	Nop Op = iota

	// Phi merges values at a confluence point. Uses[i] flows in from
	// Block.Preds[i]. Phi instructions must form a prefix of their block.
	Phi
	// Psi is the predicated merge of psi-SSA (Stoutchinin & de Ferrière):
	// d = psi(p1?a1, ..., pn?an). Converted to psi-conventional form
	// (2-operand-like pinning) before translation out of SSA.
	Psi

	// Copy is a register move: Defs[0] = Uses[0]. Move counting — the
	// paper's entire evaluation metric — counts exactly these.
	Copy
	// ParCopy is a parallel copy: (d1,...,dn) = (s1,...,sn) with all
	// sources read before any destination is written. Sequentialized into
	// Copy chains by package parcopy.
	ParCopy

	// Const materializes Imm into Defs[0].
	Const
	// Make loads the high 16 bits of an immediate (ST120 make).
	Make
	// More completes a make with the low 16 bits; 2-operand: the
	// destination must use the same resource as Uses[0] (paper Fig. 1 S6).
	More

	Add
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Neg
	Not
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	Min
	Max
	// Mac is a multiply-accumulate: d = u0 + u1*u2, 2-operand on the
	// accumulator (d and u0 share a resource).
	Mac
	// Select is d = u0 != 0 ? u1 : u2 (fully predicated ST120 style).
	Select

	// AutoAdd is the auto-modifying address computation of Fig. 1 S1:
	// d = u0 + Imm where d and u0 must share a resource (2-operand).
	AutoAdd

	// Load reads Defs[0] = mem[Uses[0]].
	Load
	// Store writes mem[Uses[0]] = Uses[1].
	Store

	// Call invokes Callee; Uses are arguments (ABI-pinned to parameter
	// registers), Defs are results (ABI-pinned to return registers).
	Call

	// Input is the function prologue pseudo-instruction (.input): Defs are
	// the formal parameters, ABI-pinned to parameter registers.
	Input
	// Output is the function epilogue pseudo-instruction (.output): Uses
	// are the return values, ABI-pinned to return registers.
	Output

	// Br is a conditional branch on Uses[0] != 0: control goes to
	// Block.Succs[0] when taken, Block.Succs[1] otherwise.
	Br
	// Jump is an unconditional branch to Block.Succs[0].
	Jump

	opCount
)

var opNames = [...]string{
	Nop:     "nop",
	Phi:     "phi",
	Psi:     "psi",
	Copy:    "mov",
	ParCopy: "pcopy",
	Const:   "const",
	Make:    "make",
	More:    "more",
	Add:     "add",
	Sub:     "sub",
	Mul:     "mul",
	Div:     "div",
	Rem:     "rem",
	And:     "and",
	Or:      "or",
	Xor:     "xor",
	Shl:     "shl",
	Shr:     "shr",
	Neg:     "neg",
	Not:     "not",
	CmpEQ:   "cmpeq",
	CmpNE:   "cmpne",
	CmpLT:   "cmplt",
	CmpLE:   "cmple",
	CmpGT:   "cmpgt",
	CmpGE:   "cmpge",
	Min:     "min",
	Max:     "max",
	Mac:     "mac",
	Select:  "select",
	AutoAdd: "autoadd",
	Load:    "load",
	Store:   "store",
	Call:    "call",
	Input:   ".input",
	Output:  ".output",
	Br:      "br",
	Jump:    "jump",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// IsTwoOperand reports whether op constrains Defs[0] and Uses[0] to the
// same resource (ISA renaming constraint, paper §2.1).
func (op Op) IsTwoOperand() bool {
	switch op {
	case More, AutoAdd, Mac:
		return true
	}
	return false
}

// isTerminator reports whether op ends a basic block.
func (op Op) isTerminator() bool {
	switch op {
	case Br, Jump, Output:
		return true
	}
	return false
}

// Instr is a single IR instruction, living in its function's chunked
// instruction arena (*Instr addresses are stable for the lifetime of the
// Func, but not across Clone/RestoreFrom — re-resolve via f.Instr(id)).
// Defs and Uses are ordered operand lists stored as spans of the
// function's operand slab; for Phi, Uses is parallel to the containing
// block's Preds.
//
// Imm and Callee are plain fields: no cached analysis reads them, so
// their assignment does not need a generation bump. The opcode and the
// operand values do feed analyses and are therefore mutable only through
// SetOp and the operand mutators, which bump the generation themselves.
type Instr struct {
	op     Op
	Imm    int64
	Callee string

	id  InstrID
	fn  *Func
	blk BlockID

	defOff, defLen int32
	useOff, useLen int32
}

// ID returns the instruction's handle within its function.
func (in *Instr) ID() InstrID { return in.id }

// Func returns the function owning the instruction.
func (in *Instr) Func() *Func { return in.fn }

// Op returns the instruction opcode.
func (in *Instr) Op() Op { return in.op }

// SetOp rewrites the opcode in place (strength reduction, φ→ψ
// conversion, const folding). Bumps the generation: liveness semantics
// depend on φ-ness and on the def/use pattern implied by the opcode.
func (in *Instr) SetOp(op Op) {
	in.op = op
	in.fn.generation++
}

// Block returns the basic block containing the instruction, or nil if
// the instruction is detached.
func (in *Instr) Block() *Block {
	if in.blk == NoBlock {
		return nil
	}
	return in.fn.Block(in.blk)
}

// Defs returns the definition operands. The returned slice is a live
// view into the function's operand slab: treat it as read-only (all
// mutation goes through the Set* mutators) and do not hold it across
// operand-list growth (AddDef/AddUse/SetOperands).
func (in *Instr) Defs() []Operand {
	return in.fn.ops[in.defOff : in.defOff+in.defLen : in.defOff+in.defLen]
}

// Uses returns the use operands, under the same view contract as Defs.
func (in *Instr) Uses() []Operand {
	return in.fn.ops[in.useOff : in.useOff+in.useLen : in.useOff+in.useLen]
}

// NumDefs returns the number of definition operands.
func (in *Instr) NumDefs() int { return int(in.defLen) }

// NumUses returns the number of use operands.
func (in *Instr) NumUses() int { return int(in.useLen) }

// Def returns the i-th defined value.
func (in *Instr) Def(i int) ValueID { return in.fn.ops[in.defOff+int32(i)].Val }

// Use returns the i-th used value.
func (in *Instr) Use(i int) ValueID { return in.fn.ops[in.useOff+int32(i)].Val }

// DefOp returns the i-th definition operand.
func (in *Instr) DefOp(i int) Operand { return in.fn.ops[in.defOff+int32(i)] }

// UseOp returns the i-th use operand.
func (in *Instr) UseOp(i int) Operand { return in.fn.ops[in.useOff+int32(i)] }

// SetDef replaces the i-th definition operand (value and pin). Bumps the
// generation.
func (in *Instr) SetDef(i int, o Operand) {
	in.fn.cowOps()
	in.fn.ops[in.defOff+int32(i)] = o
	in.fn.generation++
}

// SetUse replaces the i-th use operand (value and pin). Bumps the
// generation.
func (in *Instr) SetUse(i int, o Operand) {
	in.fn.cowOps()
	in.fn.ops[in.useOff+int32(i)] = o
	in.fn.generation++
}

// SetDefVal rewrites the value of the i-th definition, keeping its pin.
// Bumps the generation.
func (in *Instr) SetDefVal(i int, v ValueID) {
	in.fn.cowOps()
	in.fn.ops[in.defOff+int32(i)].Val = v
	in.fn.generation++
}

// SetUseVal rewrites the value of the i-th use, keeping its pin. Bumps
// the generation.
func (in *Instr) SetUseVal(i int, v ValueID) {
	in.fn.cowOps()
	in.fn.ops[in.useOff+int32(i)].Val = v
	in.fn.generation++
}

// SetDefPin pins the i-th definition to resource r (NoValue unpins).
// Pins are not read by any cached analysis, so this deliberately does
// not bump the generation — the invariant the pin-collect phases rely on
// to keep a pre-collect liveness valid.
func (in *Instr) SetDefPin(i int, r ValueID) {
	in.fn.cowOps()
	o := &in.fn.ops[in.defOff+int32(i)]
	*o = o.WithPin(r)
}

// SetUsePin pins the i-th use to resource r (NoValue unpins), without a
// generation bump (see SetDefPin).
func (in *Instr) SetUsePin(i int, r ValueID) {
	in.fn.cowOps()
	o := &in.fn.ops[in.useOff+int32(i)]
	*o = o.WithPin(r)
}

// SetOperands replaces both operand lists wholesale, re-carving them at
// the tail of the operand slab. Bumps the generation.
func (in *Instr) SetOperands(defs, uses []Operand) {
	f := in.fn
	in.defOff, in.defLen = f.carveOps(defs)
	in.useOff, in.useLen = f.carveOps(uses)
	f.generation++
}

// AddDef appends a definition operand, re-carving the def span if it
// cannot grow in place. Bumps the generation.
func (in *Instr) AddDef(o Operand) {
	in.defOff, in.defLen = in.fn.growSpan(in.defOff, in.defLen, o)
	in.fn.generation++
}

// AddUse appends a use operand (see AddDef). Bumps the generation.
func (in *Instr) AddUse(o Operand) {
	in.useOff, in.useLen = in.fn.growSpan(in.useOff, in.useLen, o)
	in.fn.generation++
}

// RemoveUseAt splices out the i-th use operand in place (the φ-argument
// splice when a predecessor edge is deleted). Bumps the generation.
func (in *Instr) RemoveUseAt(i int) {
	in.fn.cowOps()
	ops := in.fn.ops[in.useOff : in.useOff+in.useLen]
	copy(ops[i:], ops[i+1:])
	in.useLen--
	in.fn.generation++
}

// growSpan extends the operand span [off, off+n) by one element. If the
// span already sits at the slab tail it grows in place; otherwise the
// whole span is copied to the tail (the old span becomes garbage that
// the next Clone drops).
func (f *Func) growSpan(off, n int32, o Operand) (int32, int32) {
	f.cowOps()
	if int(off+n) == len(f.ops) {
		f.ops = append(f.ops, o)
		return off, n + 1
	}
	noff := int32(len(f.ops))
	f.ops = append(f.ops, f.ops[off:off+n]...)
	f.ops = append(f.ops, o)
	return noff, n + 1
}

// HasDef reports whether v appears among the instruction's definitions.
func (in *Instr) HasDef(v ValueID) bool {
	for _, d := range in.Defs() {
		if d.Val == v {
			return true
		}
	}
	return false
}

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var buf [24]byte
	i := len(buf)
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
