package ir

import "fmt"

// Verify checks structural invariants of the function:
//   - Preds/Succs are mutually consistent, and the entry block has no
//     predecessors (.input runs once, before any loop);
//   - every block is terminated (Br with 2 successors, Jump with 1,
//     Output with 0) and terminators appear only in final position;
//   - φ instructions form a prefix of their block and have exactly one
//     argument per predecessor;
//   - operand counts fit the opcode, and an .input declares no more
//     parameters (Imm) than it defines;
//   - values referenced by instructions belong to the function;
//   - arena spans are well-formed (every handle resolves).
func (f *Func) Verify() error {
	if len(f.blockList) == 0 {
		return fmt.Errorf("%s: function has no blocks", f.Name)
	}
	nv := ValueID(len(f.vals))
	for _, b := range f.blockList {
		if b.fn != f {
			return fmt.Errorf("%s: block %v does not belong to function", f.Name, b)
		}
		if b.codeOff < 0 || b.codeLen < 0 || int(b.codeOff+b.codeLen) > len(f.code) {
			return fmt.Errorf("%s: block %v has bad code span [%d,+%d) of %d", f.Name, b, b.codeOff, b.codeLen, len(f.code))
		}
		for _, p := range b.Preds() {
			if p < 0 || int32(p) >= f.numBlocks {
				return fmt.Errorf("%s: %v has out-of-range pred handle %d", f.Name, b, p)
			}
			if f.Block(p).succIndex(b.ID) < 0 {
				return fmt.Errorf("%s: %v lists pred %v but is not its succ", f.Name, b, f.Block(p))
			}
		}
		for _, s := range b.Succs() {
			if s < 0 || int32(s) >= f.numBlocks {
				return fmt.Errorf("%s: %v has out-of-range succ handle %d", f.Name, b, s)
			}
			if f.Block(s).PredIndex(b.ID) < 0 {
				return fmt.Errorf("%s: %v lists succ %v but is not its pred", f.Name, b, f.Block(s))
			}
		}
		term := b.Terminator()
		if term == nil {
			return fmt.Errorf("%s: block %v is not terminated", f.Name, b)
		}
		switch term.Op() {
		case Br:
			if b.NumSuccs() != 2 {
				return fmt.Errorf("%s: %v ends in br but has %d successors", f.Name, b, b.NumSuccs())
			}
		case Jump:
			if b.NumSuccs() != 1 {
				return fmt.Errorf("%s: %v ends in jump but has %d successors", f.Name, b, b.NumSuccs())
			}
		case Output:
			if b.NumSuccs() != 0 {
				return fmt.Errorf("%s: %v ends in .output but has successors", f.Name, b)
			}
		}
		seenNonPhi := false
		for i, in := range b.Instrs() {
			if in.blk != b.ID {
				return fmt.Errorf("%s: instruction %q not attached to block %v", f.Name, in, b)
			}
			if in.Op().isTerminator() && i != b.NumInstrs()-1 {
				return fmt.Errorf("%s: terminator %q not last in block %v", f.Name, in, b)
			}
			if in.Op() == Phi {
				if seenNonPhi {
					return fmt.Errorf("%s: φ %q after non-φ in block %v", f.Name, in, b)
				}
				if in.NumUses() != b.NumPreds() {
					return fmt.Errorf("%s: φ %q has %d args for %d preds of %v",
						f.Name, in, in.NumUses(), b.NumPreds(), b)
				}
			} else {
				seenNonPhi = true
			}
			if err := checkArity(in); err != nil {
				return fmt.Errorf("%s: block %v: %v", f.Name, b, err)
			}
			check := func(ops []Operand) error {
				for _, o := range ops {
					if o.Val < 0 || o.Val >= nv {
						return fmt.Errorf("%s: foreign value %d in %q", f.Name, o.Val, in)
					}
					if o.Pinned() && (o.Pin() < 0 || o.Pin() >= nv) {
						return fmt.Errorf("%s: foreign pin %d in %q", f.Name, o.Pin(), in)
					}
				}
				return nil
			}
			if err := check(in.Defs()); err != nil {
				return err
			}
			if err := check(in.Uses()); err != nil {
				return err
			}
		}
	}
	if e := f.blockList[0]; e.NumPreds() > 0 {
		return fmt.Errorf("%s: entry block %v has predecessors", f.Name, e)
	}
	return nil
}

func checkArity(in *Instr) error {
	bad := func() error {
		return fmt.Errorf("bad arity for %q: %d defs, %d uses", in, in.NumDefs(), in.NumUses())
	}
	nd, nu := in.NumDefs(), in.NumUses()
	switch in.Op() {
	case Nop:
	case Phi:
		if nd != 1 {
			return bad()
		}
	case Psi:
		if nd != 1 || nu == 0 || nu%2 != 0 {
			return bad()
		}
	case Copy:
		if nd != 1 || nu != 1 {
			return bad()
		}
	case ParCopy:
		if nd != nu {
			return bad()
		}
	case Const, Make:
		if nd != 1 || nu != 0 {
			return bad()
		}
	case More, AutoAdd, Neg, Not, Load:
		if nd != 1 || nu != 1 {
			return bad()
		}
	case Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr,
		CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE, Min, Max:
		if nd != 1 || nu != 2 {
			return bad()
		}
	case Mac, Select:
		if nd != 1 || nu != 3 {
			return bad()
		}
	case Store:
		if nd != 0 || nu != 2 {
			return bad()
		}
	case Call:
		// any arity
	case Input:
		if nu != 0 {
			return bad()
		}
		// Imm declares the leading defs as parameters; a parameter it
		// does not define would be read before any definition.
		if in.Imm < 0 || in.Imm > int64(nd) {
			return fmt.Errorf("bad .input %q: declares %d parameters, defines %d", in, in.Imm, nd)
		}
	case Output:
		if nd != 0 {
			return bad()
		}
	case Br:
		if nu != 1 {
			return bad()
		}
	case Jump:
		if nd != 0 || nu != 0 {
			return bad()
		}
	default:
		return fmt.Errorf("unknown opcode %d", in.Op())
	}
	return nil
}
