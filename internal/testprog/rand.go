package testprog

import (
	"math/rand"

	"outofssa/internal/ir"
)

// RandOptions controls the random structured program generator.
type RandOptions struct {
	// MaxDepth bounds the nesting of if/loop constructs.
	MaxDepth int
	// Vars is the number of mutable program variables.
	Vars int
	// StmtsPerBlock is the expected straight-line statement count.
	StmtsPerBlock int
	// Calls enables random calls (ABI pressure).
	Calls bool
	// Stack enables SP-relative stores/loads (dedicated-register pressure).
	Stack bool
	// BottomTestedLoops makes every loop test its condition in the latch
	// instead of the header. The latch then branches to the header or
	// the exit, so the back edge is critical: the place where a φ can
	// kill its own result (the lost-copy shape). The zero value keeps
	// head-tested loops, whose latch only jumps back.
	BottomTestedLoops bool
}

// DefaultRandOptions are small enough for exhaustive interpretation but
// rich enough to produce multi-φ confluence points.
func DefaultRandOptions() RandOptions {
	return RandOptions{MaxDepth: 3, Vars: 6, StmtsPerBlock: 4, Calls: true, Stack: true}
}

// Rand generates a random structured (hence reducible, terminating)
// pre-SSA program from the seed. All loops are counted with small
// constant bounds, so interpretation always terminates.
func Rand(seed int64, opt RandOptions) *ir.Func {
	rng := rand.New(rand.NewSource(seed))
	g := &randGen{rng: rng, opt: opt, bld: ir.NewBuilder("rand")}
	return g.build()
}

type randGen struct {
	rng  *rand.Rand
	opt  RandOptions
	bld  *ir.Builder
	vars []ir.ValueID
	nval int
}

func (g *randGen) v() ir.ValueID { return g.vars[g.rng.Intn(len(g.vars))] }

func (g *randGen) temp() ir.ValueID {
	g.nval++
	return g.bld.Val("")
}

func (g *randGen) build() *ir.Func {
	entry := g.bld.Block("entry")
	g.bld.SetBlock(entry)
	for i := 0; i < g.opt.Vars; i++ {
		g.vars = append(g.vars, g.bld.Val(""))
	}
	nParams := 1 + g.rng.Intn(3)
	params := append([]ir.ValueID(nil), g.vars[:nParams]...)
	in := g.bld.Input(params...)
	if g.opt.Stack {
		in.AddDef(ir.Operand{Val: g.bld.Fn.Target.SP})
	}
	for _, v := range g.vars[nParams:] {
		g.bld.Const(v, int64(g.rng.Intn(16)))
	}
	g.region(g.opt.MaxDepth)
	// Return a deterministic combination of a few variables. Combining
	// every variable would keep the whole frame live until the end, which
	// no real program does and which distorts the interference structure.
	nOut := 3
	if nOut > len(g.vars) {
		nOut = len(g.vars)
	}
	acc := g.temp()
	g.bld.Const(acc, 0)
	for _, v := range g.vars[:nOut] {
		nacc := g.temp()
		g.bld.Binary(ir.Xor, nacc, acc, v)
		acc = nacc
	}
	g.bld.Output(acc)
	return g.bld.Fn
}

// region emits a sequence of statements/constructs into the current block
// and leaves the builder positioned in the block control falls out of.
func (g *randGen) region(depth int) {
	n := 1 + g.rng.Intn(g.opt.StmtsPerBlock)
	for i := 0; i < n; i++ {
		g.statement()
	}
	if depth == 0 {
		return
	}
	constructs := 1 + g.rng.Intn(2)
	for k := 0; k < constructs; k++ {
		switch g.rng.Intn(3) {
		case 0:
			g.ifElse(depth - 1)
		case 1:
			g.countedLoop(depth - 1)
		case 2:
			for i := 0; i < 2; i++ {
				g.statement()
			}
		}
	}
}

func (g *randGen) statement() {
	bld := g.bld
	switch g.rng.Intn(10) {
	case 0, 1, 2:
		ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Min, ir.Max}
		bld.Binary(ops[g.rng.Intn(len(ops))], g.v(), g.v(), g.v())
	case 3:
		bld.Const(g.v(), int64(g.rng.Intn(64)))
	case 4:
		bld.Copy(g.v(), g.v())
	case 5:
		if g.opt.Calls {
			callees := []string{"f", "g", "h"}
			switch g.rng.Intn(3) {
			case 0:
				// Chained calls: the result feeds the next call directly —
				// the register-friendly flow real call-heavy code has
				// (result in R0 becomes the next argument in R0).
				t := g.temp()
				bld.Call(callees[g.rng.Intn(len(callees))], []ir.ValueID{t}, g.v())
				bld.Call(callees[g.rng.Intn(len(callees))], []ir.ValueID{g.v()}, t, g.v())
			case 1:
				// Plain call.
				nres := 1 + g.rng.Intn(2)
				res := []ir.ValueID{g.v()}
				if nres == 2 {
					res = append(res, g.v())
					if res[1] == res[0] {
						res[1] = g.temp()
					}
				}
				nargs := g.rng.Intn(4)
				args := make([]ir.ValueID, nargs)
				for i := range args {
					args[i] = g.v()
				}
				bld.Call(callees[g.rng.Intn(len(callees))], res, args...)
			default:
				// Pass-through: forward the leading variables in order
				// (parameter re-forwarding, cheap when pinned).
				n := 1 + g.rng.Intn(3)
				args := make([]ir.ValueID, n)
				for i := range args {
					args[i] = g.vars[i%len(g.vars)]
				}
				bld.Call(callees[g.rng.Intn(len(callees))], []ir.ValueID{g.v()}, args...)
			}
		} else {
			bld.Unary(ir.Neg, g.v(), g.v())
		}
	case 6:
		if g.opt.Stack {
			sp := bld.Fn.Target.SP
			off := g.temp()
			addr := g.temp()
			bld.Const(off, int64(8*g.rng.Intn(4)))
			bld.Binary(ir.Add, addr, sp, off)
			if g.rng.Intn(2) == 0 {
				bld.Store(addr, g.v())
			} else {
				bld.Load(g.v(), addr)
			}
		} else {
			bld.Unary(ir.Not, g.v(), g.v())
		}
	case 7:
		bld.Mac(g.v(), g.v(), g.v(), g.v())
	case 8:
		d := g.v()
		l := g.temp()
		bld.Make(l, int64(g.rng.Intn(256)))
		bld.More(d, l, int64(g.rng.Intn(1<<16)))
	default:
		bld.Select(g.v(), g.v(), g.v(), g.v())
	}
}

func (g *randGen) ifElse(depth int) {
	bld := g.bld
	f := bld.Fn
	cond := g.temp()
	one := g.temp()
	bld.Const(one, 1)
	bld.Binary(ir.And, cond, g.v(), one)

	then := f.NewBlock("")
	join := f.NewBlock("")
	if g.rng.Intn(2) == 0 {
		els := f.NewBlock("")
		bld.Br(cond, then, els)
		bld.SetBlock(then)
		g.region(depth)
		bld.Jump(join)
		bld.SetBlock(els)
		g.region(depth)
		bld.Jump(join)
	} else {
		bld.Br(cond, then, join)
		bld.SetBlock(then)
		g.region(depth)
		bld.Jump(join)
	}
	bld.SetBlock(join)
}

func (g *randGen) countedLoop(depth int) {
	bld := g.bld
	f := bld.Fn
	// Fresh counter ensures termination regardless of body effects.
	i, bound, c, one := g.temp(), g.temp(), g.temp(), g.temp()
	bld.Const(i, 0)
	bld.Const(bound, int64(1+g.rng.Intn(3)))
	bld.Const(one, 1)

	if g.opt.BottomTestedLoops {
		body := f.NewBlock("")
		exit := f.NewBlock("")
		bld.Jump(body)
		bld.SetBlock(body)
		g.region(depth)
		bld.Binary(ir.Add, i, i, one)
		bld.Binary(ir.CmpLT, c, i, bound)
		bld.Br(c, body, exit)
		bld.SetBlock(exit)
		return
	}

	head := f.NewBlock("")
	body := f.NewBlock("")
	exit := f.NewBlock("")
	bld.Jump(head)

	bld.SetBlock(head)
	bld.Binary(ir.CmpLT, c, i, bound)
	bld.Br(c, body, exit)

	bld.SetBlock(body)
	g.region(depth)
	bld.Binary(ir.Add, i, i, one)
	bld.Jump(head)

	bld.SetBlock(exit)
}
