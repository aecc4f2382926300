package ir

// Builder offers a fluent API for constructing IR functions, used by the
// LAI parser, the workload suites and the tests. It tracks a current
// insertion block.
type Builder struct {
	Fn  *Func
	Cur *Block
}

// NewBuilder creates a builder over a fresh function.
func NewBuilder(name string) *Builder {
	f := NewFunc(name)
	return &Builder{Fn: f}
}

// Block creates a new block and makes it current.
func (bld *Builder) Block(name string) *Block {
	b := bld.Fn.NewBlock(name)
	bld.Cur = b
	return b
}

// SetBlock switches the insertion point to b.
func (bld *Builder) SetBlock(b *Block) { bld.Cur = b }

// Val creates a fresh virtual register.
func (bld *Builder) Val(name string) ValueID { return bld.Fn.NewValue(name) }

func (bld *Builder) emit(in *Instr) *Instr {
	if bld.Cur == nil {
		// Panic audit (checked-pipeline PR): programmer invariant. The
		// Builder is only driven by in-repo construction code and tests,
		// never by LAI input (the parser appends Instrs directly), so a
		// missing SetBlock is a bug in the caller, not bad input.
		panic("ir: Builder has no current block")
	}
	bld.Cur.Append(in)
	return in
}

// Input emits the .input pseudo-instruction defining the parameters.
// Imm records the declared parameter count so the ABI collect phase can
// distinguish parameters from implicit entry definitions appended later.
func (bld *Builder) Input(params ...ValueID) *Instr {
	in := bld.Fn.NewInstr(Input, Ops(params...), nil)
	in.Imm = int64(len(params))
	return bld.emit(in)
}

// Output emits the .output terminator returning the given values.
func (bld *Builder) Output(rets ...ValueID) *Instr {
	return bld.emit(bld.Fn.NewInstr(Output, nil, Ops(rets...)))
}

// Const emits d = imm.
func (bld *Builder) Const(d ValueID, imm int64) *Instr {
	in := bld.Fn.NewInstr(Const, Ops(d), nil)
	in.Imm = imm
	return bld.emit(in)
}

// Make emits the high-half immediate load d = upper16(imm).
func (bld *Builder) Make(d ValueID, imm int64) *Instr {
	in := bld.Fn.NewInstr(Make, Ops(d), nil)
	in.Imm = imm
	return bld.emit(in)
}

// More emits the 2-operand low-half immediate d = s | imm.
func (bld *Builder) More(d, s ValueID, imm int64) *Instr {
	in := bld.Fn.NewInstr(More, Ops(d), Ops(s))
	in.Imm = imm
	return bld.emit(in)
}

// Copy emits the move d = s.
func (bld *Builder) Copy(d, s ValueID) *Instr {
	return bld.emit(bld.Fn.NewInstr(Copy, Ops(d), Ops(s)))
}

// Binary emits d = op(a, b) for a plain 3-address arithmetic op.
func (bld *Builder) Binary(op Op, d, a, b ValueID) *Instr {
	return bld.emit(bld.Fn.NewInstr(op, Ops(d), Ops(a, b)))
}

// Unary emits d = op(a).
func (bld *Builder) Unary(op Op, d, a ValueID) *Instr {
	return bld.emit(bld.Fn.NewInstr(op, Ops(d), Ops(a)))
}

// Mac emits the 2-operand multiply-accumulate d = acc + a*b.
func (bld *Builder) Mac(d, acc, a, b ValueID) *Instr {
	return bld.emit(bld.Fn.NewInstr(Mac, Ops(d), Ops(acc, a, b)))
}

// Select emits d = cond != 0 ? a : b.
func (bld *Builder) Select(d, cond, a, b ValueID) *Instr {
	return bld.emit(bld.Fn.NewInstr(Select, Ops(d), Ops(cond, a, b)))
}

// AutoAdd emits the 2-operand auto-increment d = p + imm.
func (bld *Builder) AutoAdd(d, p ValueID, imm int64) *Instr {
	in := bld.Fn.NewInstr(AutoAdd, Ops(d), Ops(p))
	in.Imm = imm
	return bld.emit(in)
}

// Load emits d = mem[addr].
func (bld *Builder) Load(d, addr ValueID) *Instr {
	return bld.emit(bld.Fn.NewInstr(Load, Ops(d), Ops(addr)))
}

// Store emits mem[addr] = v.
func (bld *Builder) Store(addr, v ValueID) *Instr {
	return bld.emit(bld.Fn.NewInstr(Store, nil, Ops(addr, v)))
}

// Call emits results = callee(args...).
func (bld *Builder) Call(callee string, results []ValueID, args ...ValueID) *Instr {
	in := bld.Fn.NewInstr(Call, Ops(results...), Ops(args...))
	in.Callee = callee
	return bld.emit(in)
}

// Phi emits a φ at the end of the current φ prefix of the block. Uses
// must be parallel to the block's predecessor list (possibly set later).
func (bld *Builder) Phi(d ValueID, args ...ValueID) *Instr {
	in := bld.Fn.NewInstr(Phi, Ops(d), Ops(args...))
	bld.Cur.InsertAt(bld.Cur.FirstNonPhi(), in)
	return in
}

// Br emits a conditional branch and wires the taken/fallthrough edges.
func (bld *Builder) Br(cond ValueID, taken, fallthru *Block) *Instr {
	in := bld.emit(bld.Fn.NewInstr(Br, nil, Ops(cond)))
	bld.Fn.AddEdge(bld.Cur, taken)
	bld.Fn.AddEdge(bld.Cur, fallthru)
	return in
}

// Jump emits an unconditional branch and wires the edge.
func (bld *Builder) Jump(to *Block) *Instr {
	in := bld.emit(bld.Fn.NewInstr(Jump, nil, nil))
	bld.Fn.AddEdge(bld.Cur, to)
	return in
}
