package ir

import (
	"fmt"
	"iter"
)

// Block is a basic block: a straight-line instruction sequence ended by a
// terminator (Br, Jump or Output). Phi instructions, when present, form a
// prefix of the block and their Uses are parallel to Preds.
//
// Blocks live in their function's chunked block arena (*Block addresses
// are stable for the lifetime of the Func, but not across
// Clone/RestoreFrom — re-resolve via f.Block(id)). The instruction list
// is a capacity-capped span of the function's code slab; predecessor and
// successor lists are handle slices. ID is set at creation and must
// never be written; Name and LoopDepth are plain annotations that no
// cached analysis reads.
type Block struct {
	ID   BlockID
	Name string

	// LoopDepth is the loop nesting depth computed by cfg.ComputeLoopDepth;
	// 0 means not inside any loop. The paper weights moves by 5^depth and
	// processes confluence points inner-to-outer.
	LoopDepth int

	fn *Func

	codeOff, codeLen, codeCap int32
	preds, succs              []BlockID
}

// Func returns the function containing the block.
func (b *Block) Func() *Func { return b.fn }

func (b *Block) String() string {
	if b == nil {
		return "<nil>"
	}
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("b%d", b.ID)
}

// ---- instruction list ----

// NumInstrs returns the number of instructions in the block.
func (b *Block) NumInstrs() int { return int(b.codeLen) }

// Instr returns the i-th instruction of the block.
func (b *Block) Instr(i int) *Instr {
	if i < 0 || int32(i) >= b.codeLen {
		panic(fmt.Sprintf("ir: %v: instruction index %d out of range [0,%d)", b, i, b.codeLen))
	}
	return b.fn.Instr(b.fn.code[b.codeOff+int32(i)])
}

// InstrIDs returns the block's instruction handles in order. The slice
// is a live view into the function's code slab: treat it as read-only
// and do not hold it across block mutation.
func (b *Block) InstrIDs() []InstrID {
	return b.fn.code[b.codeOff : b.codeOff+b.codeLen : b.codeOff+b.codeLen]
}

// Instrs iterates the block's instructions in order, yielding
// (index, *Instr). The span is captured when iteration starts, matching
// the snapshot semantics of ranging over a Go slice: instructions
// inserted by the loop body into a different block are unaffected;
// editing the block being iterated mid-loop follows the same
// in-place-vs-reallocated visibility rules the pointer-slice IR had.
func (b *Block) Instrs() iter.Seq2[int, *Instr] {
	return func(yield func(int, *Instr) bool) {
		f := b.fn
		off, n := b.codeOff, b.codeLen
		for i := int32(0); i < n; i++ {
			if !yield(int(i), f.Instr(f.code[off+i])) {
				return
			}
		}
	}
}

// grow widens the block's code span by one capacity slot: in place when
// the span sits at the slab tail, otherwise by re-carving the span at
// the tail with doubled capacity (the old span becomes garbage that the
// next Clone drops).
func (b *Block) grow() {
	f := b.fn
	if int(b.codeOff+b.codeCap) == len(f.code) {
		f.code = append(f.code, NoInstr)
		b.codeCap++
		return
	}
	newCap := b.codeCap * 2
	if newCap < 8 {
		newCap = 8
	}
	noff := int32(len(f.code))
	f.code = append(f.code, f.code[b.codeOff:b.codeOff+b.codeLen]...)
	for i := b.codeLen; i < newCap; i++ {
		f.code = append(f.code, NoInstr)
	}
	b.codeOff, b.codeCap = noff, newCap
}

// Append adds in at the end of the block.
func (b *Block) Append(in *Instr) {
	b.fn.cowCode()
	if b.codeLen == b.codeCap {
		b.grow()
	}
	b.fn.code[b.codeOff+b.codeLen] = in.id
	b.codeLen++
	in.blk = b.ID
	b.fn.generation++
}

// InsertAt inserts in at position i within the block.
func (b *Block) InsertAt(i int, in *Instr) {
	b.fn.cowCode()
	if b.codeLen == b.codeCap {
		b.grow()
	}
	code := b.fn.code[b.codeOff : b.codeOff+b.codeLen+1]
	copy(code[i+1:], code[i:])
	code[i] = in.id
	b.codeLen++
	in.blk = b.ID
	b.fn.generation++
}

// RemoveAt removes and returns the instruction at position i. The
// instruction becomes detached (its arena slot and handle stay valid).
func (b *Block) RemoveAt(i int) *Instr {
	b.fn.cowCode()
	in := b.Instr(i)
	code := b.fn.code[b.codeOff : b.codeOff+b.codeLen]
	copy(code[i:], code[i+1:])
	b.codeLen--
	in.blk = NoBlock
	b.fn.generation++
	return in
}

// Truncate removes every instruction from position i to the end of the
// block, detaching each.
func (b *Block) Truncate(i int) {
	for j := int(b.codeLen) - 1; j >= i; j-- {
		b.fn.Instr(b.fn.code[b.codeOff+int32(j)]).blk = NoBlock
	}
	b.codeLen = int32(i)
	b.fn.generation++
}

// Terminator returns the block's final instruction if it is a terminator,
// else nil.
func (b *Block) Terminator() *Instr {
	if b.codeLen == 0 {
		return nil
	}
	last := b.Instr(int(b.codeLen) - 1)
	if last.op.isTerminator() {
		return last
	}
	return nil
}

// InsertBeforeTerminator inserts in just before the block terminator, or
// at the end if the block has none. This is where φ-related copies land:
// "semantically, the use takes place at the end of the predecessor block"
// (paper §3.2 Class 2).
func (b *Block) InsertBeforeTerminator(in *Instr) {
	if b.Terminator() != nil {
		b.InsertAt(int(b.codeLen)-1, in)
		return
	}
	b.Append(in)
}

// NumPhis returns the length of the block's φ prefix.
func (b *Block) NumPhis() int {
	n := 0
	for n < int(b.codeLen) && b.Instr(n).op == Phi {
		n++
	}
	return n
}

// Phis iterates the block's φ instructions (the Phi prefix), yielding
// (index, *Instr).
func (b *Block) Phis() iter.Seq2[int, *Instr] {
	return func(yield func(int, *Instr) bool) {
		f := b.fn
		off, n := b.codeOff, b.codeLen
		for i := int32(0); i < n; i++ {
			in := f.Instr(f.code[off+i])
			if in.op != Phi {
				return
			}
			if !yield(int(i), in) {
				return
			}
		}
	}
}

// FirstNonPhi returns the index of the first non-φ instruction.
func (b *Block) FirstNonPhi() int { return b.NumPhis() }

// ---- CFG edges ----

// NumPreds returns the number of predecessor blocks.
func (b *Block) NumPreds() int { return len(b.preds) }

// NumSuccs returns the number of successor blocks.
func (b *Block) NumSuccs() int { return len(b.succs) }

// Preds returns the predecessor handles in order (φ uses are parallel to
// this list). Read-only view; mutate through AddEdge/ReplacePred/SetPreds.
func (b *Block) Preds() []BlockID { return b.preds }

// Succs returns the successor handles in order (Br reads Succs[0] when
// taken, Succs[1] otherwise). Read-only view.
func (b *Block) Succs() []BlockID { return b.succs }

// Pred returns the i-th predecessor block.
func (b *Block) Pred(i int) *Block { return b.fn.Block(b.preds[i]) }

// Succ returns the i-th successor block.
func (b *Block) Succ(i int) *Block { return b.fn.Block(b.succs[i]) }

// PredIndex returns the position of p in b.Preds, or -1.
func (b *Block) PredIndex(p BlockID) int {
	for i, q := range b.preds {
		if q == p {
			return i
		}
	}
	return -1
}

// succIndex returns the position of s in b.Succs, or -1.
func (b *Block) succIndex(s BlockID) int {
	for i, q := range b.succs {
		if q == s {
			return i
		}
	}
	return -1
}

// ReplacePred substitutes newPred for oldPred in b.Preds (φ uses keep
// their positions, so φ argument correspondence is preserved).
func (b *Block) ReplacePred(oldPred, newPred BlockID) {
	for i, q := range b.preds {
		if q == oldPred {
			b.fn.cowEdges()
			b.preds[i] = newPred
			b.fn.NoteCFGMutation()
			return
		}
	}
	// Panic audit: programmer invariant. CFG edge rewrites are performed
	// only by passes that just looked the edge up; malformed *input* edges
	// are caught by Func.Verify (and the checked pipeline's runner
	// contains any pass that trips this anyway).
	panic(fmt.Sprintf("ir: %v is not a predecessor of %v", b.fn.Block(oldPred), b))
}

// RemovePredAt splices out the i-th predecessor edge entry. The caller
// is responsible for the matching φ-argument splice (cfg cleanup does
// both in lockstep).
func (b *Block) RemovePredAt(i int) {
	b.fn.cowEdges()
	b.preds = append(b.preds[:i], b.preds[i+1:]...)
	b.fn.NoteCFGMutation()
}

// SetPreds replaces the predecessor list wholesale (CFG cleanup).
func (b *Block) SetPreds(ids []BlockID) {
	b.preds = append(b.preds[:0:0], ids...)
	b.fn.NoteCFGMutation()
}

// SetSuccs replaces the successor list wholesale (CFG cleanup).
func (b *Block) SetSuccs(ids []BlockID) {
	b.succs = append(b.succs[:0:0], ids...)
	b.fn.NoteCFGMutation()
}
