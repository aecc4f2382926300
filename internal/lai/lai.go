// Package lai parses a textual Linear-Assembly-Input-like language into
// the IR. The LAI language of the paper is "a superset of the target
// assembly language [that] allows symbolic register names to be freely
// used"; this dialect keeps that spirit:
//
//	.func fir
//	.input C:R0, P:P0            ; parameters, with optional register pins
//	entry:
//	    load  A, @P              ; A = mem[P]
//	    autoadd Q, P, 1          ; 2-operand pointer auto-increment
//	    load  B, @Q
//	    call  D = f(A, B)
//	    add   E, C, D
//	    make  L, 0x00A1
//	    more  K, L, 0x2BFA       ; 2-operand immediate completion
//	    sub   F, E, K
//	    blt   F, C, again        ; compare-and-branch (falls through)
//	    ret   F
//	again:
//	    jump  entry
//	.endfunc
//
// Identifiers R0..R15, P0..P7 and SP denote the dedicated registers of
// the target; every other identifier is a symbolic (virtual) register.
// An operand may carry an explicit pin with the ^ syntax (X^R0). Blocks
// not ended by a terminator fall through to the next label.
package lai

import (
	"fmt"
	"strconv"
	"strings"

	"outofssa/internal/ir"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("lai: line %d: %s", e.Line, e.Msg)
}

// ParseFile parses a text containing one or more .func sections.
func ParseFile(src string) ([]*ir.Func, error) {
	var funcs []*ir.Func
	p := &parser{lines: strings.Split(src, "\n")}
	for {
		p.skipBlank()
		if p.eof() {
			return funcs, nil
		}
		f, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		funcs = append(funcs, f)
	}
}

// Parse parses a single function and returns it.
func Parse(src string) (*ir.Func, error) {
	fs, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	if len(fs) != 1 {
		return nil, fmt.Errorf("lai: expected exactly one function, found %d", len(fs))
	}
	return fs[0], nil
}

type parser struct {
	lines []string
	pos   int

	fn     *ir.Func
	vals   map[string]ir.ValueID
	blocks map[string]*ir.Block
}

func (p *parser) eof() bool { return p.pos >= len(p.lines) }

func (p *parser) skipBlank() {
	for !p.eof() {
		l := stripComment(p.lines[p.pos])
		if strings.TrimSpace(l) != "" {
			return
		}
		p.pos++
	}
}

func stripComment(l string) string {
	if i := strings.IndexByte(l, ';'); i >= 0 {
		return l[:i]
	}
	return l
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// pending is an unresolved control transfer recorded during the first
// pass and wired once all labels are known.
type pending struct {
	block   *ir.Block
	line    int
	op      ir.Op // Br or Jump
	targets []string
}

func (p *parser) parseFunc() (*ir.Func, error) {
	header := strings.Fields(stripComment(p.lines[p.pos]))
	if len(header) != 2 || header[0] != ".func" {
		return nil, p.errf("expected '.func NAME', got %q", strings.TrimSpace(p.lines[p.pos]))
	}
	p.pos++

	p.fn = ir.NewFunc(header[1])
	p.vals = make(map[string]ir.ValueID)
	p.blocks = make(map[string]*ir.Block)
	cur := p.fn.NewBlock("entry")
	p.blocks["entry"] = cur

	var pendings []*pending
	var order []*ir.Block // blocks in textual order for fallthrough
	order = append(order, cur)
	terminated := false

	for !p.eof() {
		raw := stripComment(p.lines[p.pos])
		line := strings.TrimSpace(raw)
		if line == "" {
			p.pos++
			continue
		}
		if line == ".endfunc" {
			p.pos++
			break
		}
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
			name := strings.TrimSuffix(line, ":")
			blk, ok := p.blocks[name]
			if !ok {
				blk = p.fn.NewBlock(name)
				p.blocks[name] = blk
			}
			if blk == cur {
				p.pos++
				continue
			}
			// Fall through from an unterminated previous block.
			if !terminated {
				cur.Append(p.fn.NewInstr(ir.Jump, nil, nil))
				p.fn.AddEdge(cur, blk)
			}
			cur = blk
			order = append(order, blk)
			terminated = false
			p.pos++
			continue
		}

		// Instructions after a branch without an intervening label open an
		// anonymous fall-through block.
		if terminated {
			blk := p.fn.NewBlock("")
			cur = blk
			order = append(order, blk)
			terminated = false
		}

		pend, err := p.parseInstr(cur, line)
		if err != nil {
			return nil, err
		}
		if pend != nil {
			pend.line = p.pos + 1
			pendings = append(pendings, pend)
			terminated = true
		}
		if t := cur.Terminator(); t != nil && t.Op() == ir.Output {
			terminated = true
		}
		p.pos++
	}

	// Resolve branch targets. Single-target Br falls through to the next
	// textual block.
	for _, pd := range pendings {
		resolve := func(name string) (*ir.Block, error) {
			b, ok := p.blocks[name]
			if !ok {
				return nil, &ParseError{Line: pd.line, Msg: fmt.Sprintf("undefined label %q", name)}
			}
			return b, nil
		}
		switch pd.op {
		case ir.Jump:
			tgt, err := resolve(pd.targets[0])
			if err != nil {
				return nil, err
			}
			p.fn.AddEdge(pd.block, tgt)
		case ir.Br:
			taken, err := resolve(pd.targets[0])
			if err != nil {
				return nil, err
			}
			var fall *ir.Block
			if len(pd.targets) == 2 {
				fall, err = resolve(pd.targets[1])
				if err != nil {
					return nil, err
				}
			} else {
				// Fall through to the next textual block.
				idx := -1
				for i, b := range order {
					if b == pd.block {
						idx = i
					}
				}
				if idx < 0 || idx+1 >= len(order) {
					return nil, &ParseError{Line: pd.line, Msg: "compare-and-branch with nothing to fall through to"}
				}
				fall = order[idx+1]
			}
			p.fn.AddEdge(pd.block, taken)
			p.fn.AddEdge(pd.block, fall)
		}
	}

	// Every Verify error already starts with the function's name.
	if err := p.fn.Verify(); err != nil {
		return nil, fmt.Errorf("lai: %w", err)
	}
	return p.fn, nil
}

// val resolves an identifier to a value, mapping register names to the
// target's dedicated registers.
func (p *parser) val(name string) (ir.ValueID, error) {
	t := p.fn.Target
	switch {
	case name == "SP":
		return t.SP, nil
	case len(name) >= 2 && name[0] == 'R' && isDigits(name[1:]):
		n, _ := strconv.Atoi(name[1:])
		if n < len(t.R) {
			return t.R[n], nil
		}
		return ir.NoValue, fmt.Errorf("no register %s", name)
	case len(name) >= 2 && name[0] == 'P' && isDigits(name[1:]):
		n, _ := strconv.Atoi(name[1:])
		if n < len(t.P) {
			return t.P[n], nil
		}
		return ir.NoValue, fmt.Errorf("no register %s", name)
	}
	if v, ok := p.vals[name]; ok {
		return v, nil
	}
	v := p.fn.NewValue(name)
	p.vals[name] = v
	return v, nil
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// operand parses "name" or "name^PIN" or "@name" (address flavor is
// equivalent to a plain use).
func (p *parser) operand(tok string) (ir.Operand, error) {
	tok = strings.TrimPrefix(strings.TrimSpace(tok), "@")
	var pinName string
	if i := strings.IndexByte(tok, '^'); i >= 0 {
		tok, pinName = tok[:i], tok[i+1:]
	}
	v, err := p.val(tok)
	if err != nil {
		return ir.Operand{}, err
	}
	op := ir.Operand{Val: v}
	if pinName != "" {
		pin, err := p.val(pinName)
		if err != nil {
			return ir.Operand{}, err
		}
		op = op.WithPin(pin)
	}
	return op, nil
}

func (p *parser) operands(toks []string) ([]ir.Operand, error) {
	out := make([]ir.Operand, len(toks))
	for i, t := range toks {
		o, err := p.operand(t)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

func parseImm(tok string) (int64, error) {
	tok = strings.TrimSpace(tok)
	return strconv.ParseInt(tok, 0, 64)
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

var binaryOps = map[string]ir.Op{
	"add": ir.Add, "sub": ir.Sub, "mul": ir.Mul, "div": ir.Div,
	"rem": ir.Rem, "and": ir.And, "or": ir.Or, "xor": ir.Xor,
	"shl": ir.Shl, "shr": ir.Shr, "min": ir.Min, "max": ir.Max,
	"cmpeq": ir.CmpEQ, "cmpne": ir.CmpNE, "cmplt": ir.CmpLT,
	"cmple": ir.CmpLE, "cmpgt": ir.CmpGT, "cmpge": ir.CmpGE,
}

var unaryOps = map[string]ir.Op{"neg": ir.Neg, "not": ir.Not}

var cmpBranches = map[string]ir.Op{
	"beq": ir.CmpEQ, "bne": ir.CmpNE, "blt": ir.CmpLT,
	"ble": ir.CmpLE, "bgt": ir.CmpGT, "bge": ir.CmpGE,
}

// parseInstr parses one instruction line into blk; control transfers are
// returned as pendings for later wiring.
func (p *parser) parseInstr(blk *ir.Block, line string) (*pending, error) {
	op, rest, _ := strings.Cut(line, " ")
	if t, r, ok := strings.Cut(op, "\t"); ok {
		op, rest = t, r+" "+rest
	}
	op = strings.TrimSpace(op)
	args := splitArgs(rest)

	need := func(n int) error {
		if len(args) != n {
			return p.errf("%s expects %d operands, got %d", op, n, len(args))
		}
		return nil
	}

	switch {
	case op == ".input":
		var defs []ir.Operand
		for _, a := range args {
			name, pinName, hasPin := strings.Cut(a, ":")
			o, err := p.operand(strings.TrimSpace(name))
			if err != nil {
				return nil, p.errf("%v", err)
			}
			if hasPin {
				pin, err := p.val(strings.TrimSpace(pinName))
				if err != nil {
					return nil, p.errf("%v", err)
				}
				o = o.WithPin(pin)
			}
			defs = append(defs, o)
		}
		in := p.fn.NewInstr(ir.Input, defs, nil)
		in.Imm = int64(len(defs))
		blk.Append(in)
		return nil, nil

	case op == ".output" || op == "ret":
		uses, err := p.operands(args)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		blk.Append(p.fn.NewInstr(ir.Output, nil, uses))
		return nil, nil

	case op == "mov":
		if err := need(2); err != nil {
			return nil, err
		}
		ops, err := p.operands(args)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		blk.Append(p.fn.NewInstr(ir.Copy, ops[:1], ops[1:]))
		return nil, nil

	case op == "const" || op == "make":
		if err := need(2); err != nil {
			return nil, err
		}
		d, err := p.operand(args[0])
		if err != nil {
			return nil, p.errf("%v", err)
		}
		imm, err := parseImm(args[1])
		if err != nil {
			return nil, p.errf("bad immediate %q", args[1])
		}
		o := ir.Const
		if op == "make" {
			o = ir.Make
		}
		cin := p.fn.NewInstr(o, []ir.Operand{d}, nil)
		cin.Imm = imm
		blk.Append(cin)
		return nil, nil

	case op == "more" || op == "autoadd":
		if err := need(3); err != nil {
			return nil, err
		}
		ops, err := p.operands(args[:2])
		if err != nil {
			return nil, p.errf("%v", err)
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return nil, p.errf("bad immediate %q", args[2])
		}
		o := ir.More
		if op == "autoadd" {
			o = ir.AutoAdd
		}
		min := p.fn.NewInstr(o, ops[:1], ops[1:])
		min.Imm = imm
		blk.Append(min)
		return nil, nil

	case op == "mac" || op == "select":
		if err := need(4); err != nil {
			return nil, err
		}
		ops, err := p.operands(args)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		o := ir.Mac
		if op == "select" {
			o = ir.Select
		}
		blk.Append(p.fn.NewInstr(o, ops[:1], ops[1:]))
		return nil, nil

	case op == "load":
		if err := need(2); err != nil {
			return nil, err
		}
		ops, err := p.operands(args)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		blk.Append(p.fn.NewInstr(ir.Load, ops[:1], ops[1:]))
		return nil, nil

	case op == "store":
		if err := need(2); err != nil {
			return nil, err
		}
		ops, err := p.operands(args)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		blk.Append(p.fn.NewInstr(ir.Store, nil, ops))
		return nil, nil

	case op == "call":
		// call [d1, d2 =] callee(a, b, ...)
		body := rest
		var defs []ir.Operand
		if eq := strings.Index(body, "="); eq >= 0 {
			var err error
			defs, err = p.operands(splitArgs(body[:eq]))
			if err != nil {
				return nil, p.errf("%v", err)
			}
			body = body[eq+1:]
		}
		body = strings.TrimSpace(body)
		open := strings.IndexByte(body, '(')
		if open < 0 || !strings.HasSuffix(body, ")") {
			return nil, p.errf("call expects callee(args...)")
		}
		callee := strings.TrimSpace(body[:open])
		uses, err := p.operands(splitArgs(body[open+1 : len(body)-1]))
		if err != nil {
			return nil, p.errf("%v", err)
		}
		cl := p.fn.NewInstr(ir.Call, defs, uses)
		cl.Callee = callee
		blk.Append(cl)
		return nil, nil

	case op == "jump":
		if err := need(1); err != nil {
			return nil, err
		}
		blk.Append(p.fn.NewInstr(ir.Jump, nil, nil))
		return &pending{block: blk, op: ir.Jump, targets: args}, nil

	case op == "br":
		if len(args) != 3 {
			return nil, p.errf("br expects cond, taken, fallthrough")
		}
		c, err := p.operand(args[0])
		if err != nil {
			return nil, p.errf("%v", err)
		}
		blk.Append(p.fn.NewInstr(ir.Br, nil, []ir.Operand{c}))
		return &pending{block: blk, op: ir.Br, targets: args[1:]}, nil

	default:
		if cmpOp, ok := cmpBranches[op]; ok {
			if len(args) != 3 {
				return nil, p.errf("%s expects a, b, label", op)
			}
			ops, err := p.operands(args[:2])
			if err != nil {
				return nil, p.errf("%v", err)
			}
			tmp := p.fn.NewValue("")
			blk.Append(p.fn.NewInstr(cmpOp, []ir.Operand{{Val: tmp}}, ops))
			blk.Append(p.fn.NewInstr(ir.Br, nil, []ir.Operand{{Val: tmp}}))
			return &pending{block: blk, op: ir.Br, targets: args[2:]}, nil
		}
		if o, ok := binaryOps[op]; ok {
			if err := need(3); err != nil {
				return nil, err
			}
			ops, err := p.operands(args)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			blk.Append(p.fn.NewInstr(o, ops[:1], ops[1:]))
			return nil, nil
		}
		if o, ok := unaryOps[op]; ok {
			if err := need(2); err != nil {
				return nil, err
			}
			ops, err := p.operands(args)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			blk.Append(p.fn.NewInstr(o, ops[:1], ops[1:]))
			return nil, nil
		}
	}
	return nil, p.errf("unknown instruction %q", op)
}
