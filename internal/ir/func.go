package ir

import "fmt"

// Func is a single function: a control flow graph of basic blocks over a
// set of values. Blocks()[0] is the entry block.
//
// The function owns all storage (structure-of-arrays): value metadata,
// operands and block instruction lists live in flat slabs; instructions
// and blocks live in chunked arenas with stable addresses. All mutation
// goes through methods of *Func, *Block and *Instr, which maintain the
// generation counters by construction — there is no struct field whose
// direct assignment could silently invalidate a cached analysis.
type Func struct {
	Name   string
	Target *Target

	// vals[id] is the metadata of value id. Values are immutable after
	// creation and the slab is append-only, so Clone copies it verbatim.
	vals []valData
	// ops is the operand slab. Every instruction's Defs/Uses are a
	// (offset, length) span of this slab; spans are append-carved and
	// never move (growth copies the prefix, so offsets stay valid).
	ops []Operand
	// code is the instruction-list slab: every block's instruction
	// sequence is a capacity-capped span of this slab. In-place edits
	// shift within the span; growing past capacity re-carves the span at
	// the tail (the old span becomes garbage until the next Clone).
	code []InstrID

	instrChunks []*instrChunk
	numInstrs   int32
	blockChunks []*blockChunk
	numBlocks   int32
	// blockList is the live block order — print order, iteration order,
	// entry first. Dead blocks (removed by CFG cleanup) stay in the arena
	// but leave this list.
	blockList []*Block

	// generation counts mutations of the function's code. Every change
	// that can affect a dataflow analysis — creating values or blocks,
	// adding edges, inserting or removing instructions, rewriting operand
	// values — moves it forward. internal/analysis keys its per-function
	// memoization on this counter, so a cached analysis is reused exactly
	// until the function changes. All mutators of this package bump it
	// automatically; changes that no cached analysis reads — operand
	// pins, Block.LoopDepth, Instr.Imm/Callee — deliberately do not,
	// which is what lets a liveness computed before a pin-collect phase
	// survive it.
	generation uint64
	// cfgGeneration counts only CFG-shape mutations: creating blocks,
	// adding or rewiring edges, deleting blocks. Analyses that read just
	// the block graph (dominators) key on it, so operand rewrites and
	// instruction edits — which bump generation but not cfgGeneration —
	// leave a cached dominator tree valid. Invariant: cfgGeneration
	// advances only together with generation (a CFG change is also a code
	// change), never on its own.
	cfgGeneration uint64
	// analyses is the opaque per-function memo slot owned by
	// internal/analysis (kept opaque to avoid an ir → analysis cycle).
	// Clone and Snapshot do not copy it; RestoreFrom discards it.
	analyses any

	// cow links this Func to the copy-on-write family it shares slab
	// storage with; nil when the Func owns all its storage exclusively.
	// The shared* flags record which slabs are still the family's (see
	// snapshot.go); cowTouched dedupes the materializations counter.
	cow         *cowState
	sharedOps   bool
	sharedCode  bool
	sharedEdges bool
	cowTouched  bool
}

// NewFunc creates an empty function with a fresh ST120-like target.
func NewFunc(name string) *Func {
	f := &Func{Name: name}
	f.Target = newTarget(f)
	return f
}

// Generation returns the mutation generation counter. Two calls
// returning the same value guarantee the function's code (CFG, values,
// instructions, operand values) did not change in between; pin fields
// and loop-depth annotations may have.
func (f *Func) Generation() uint64 { return f.generation }

// CFGGeneration returns the CFG-shape generation counter. Two calls
// returning the same value guarantee the block graph (blocks, edges)
// did not change in between, even if instructions or operands did.
func (f *Func) CFGGeneration() uint64 { return f.cfgGeneration }

// NoteCFGMutation records that the block graph changed. It moves both
// counters: a CFG change invalidates every cached analysis, code- and
// CFG-keyed alike. The CFG mutators of this package bump them
// themselves; faultinject calls it after an injected corruption, as an
// honest pass's mutators would have.
func (f *Func) NoteCFGMutation() {
	f.generation++
	f.cfgGeneration++
}

// SetGenerations overwrites both generation counters. It exists solely
// for internal/faultinject, which models a buggy pass that mutates the
// IR without the bump the analysis cache depends on (the SoA mutators
// make that impossible to do by accident, so the fault injector has to
// ask for it explicitly). Nothing else may call it.
func (f *Func) SetGenerations(gen, cfgGen uint64) {
	f.generation = gen
	f.cfgGeneration = cfgGen
}

// AnalysisLoad returns the per-function memo installed by
// internal/analysis, or nil. Other packages must not touch the slot.
//
// The slot follows the function's ownership rule: only the goroutine
// that owns f may load or install its memo, so neither takes a lock.
// Other goroutines may only Snapshot a frozen f, and a snapshot starts
// with an empty slot.
func (f *Func) AnalysisLoad() any { return f.analyses }

// AnalysisInit installs v as the function's analysis memo. Only f's
// owner may call it (see AnalysisLoad).
func (f *Func) AnalysisInit(v any) { f.analyses = v }

// ---- values ----

func (f *Func) newValue(name string, kind ValueKind) ValueID {
	id := ValueID(len(f.vals))
	f.vals = append(f.vals, valData{name: name, kind: kind})
	f.generation++
	return id
}

// NewValue creates a fresh virtual register. If name is empty a unique
// name is generated.
func (f *Func) NewValue(name string) ValueID {
	if name == "" {
		name = "v" + itoa64(int64(len(f.vals)))
	}
	return f.newValue(name, Virtual)
}

// NumValues returns the exclusive upper bound of value IDs; suitable for
// sizing dense per-value tables. Value IDs are dense: every id in
// [0, NumValues) is a live value.
func (f *Func) NumValues() int { return len(f.vals) }

// ValueName returns the name of value v.
func (f *Func) ValueName(v ValueID) string { return f.vals[v].name }

// IsPhys reports whether v is a dedicated physical register.
func (f *Func) IsPhys(v ValueID) bool { return f.vals[v].kind == Physical }

// VStr renders a value handle for diagnostics: its name, or "<none>"
// for NoValue.
func (f *Func) VStr(v ValueID) string {
	if v == NoValue {
		return "<none>"
	}
	if int(v) >= len(f.vals) {
		return "v?" + itoa64(int64(v))
	}
	return f.vals[v].name
}

// operandString renders an operand as the printer does: "val" or
// "val^pin".
func (f *Func) operandString(o Operand) string {
	if o.Pinned() {
		return f.VStr(o.Val) + "^" + f.VStr(o.Pin())
	}
	return f.VStr(o.Val)
}

// ---- instructions ----

// allocInstr reserves a fresh arena slot and returns its (zeroed,
// detached) instruction.
func (f *Func) allocInstr() *Instr {
	id := f.numInstrs
	if int(id>>instrChunkShift) == len(f.instrChunks) {
		f.instrChunks = append(f.instrChunks, new(instrChunk))
	}
	f.numInstrs++
	in := &f.instrChunks[id>>instrChunkShift][id&instrChunkMask]
	*in = Instr{id: InstrID(id), fn: f, blk: NoBlock}
	return in
}

// NewInstr creates a detached instruction with the given operands. The
// operand slices are copied into the function's operand slab; the caller
// keeps ownership of (and may reuse) the argument slices. Attach the
// instruction with Block.Append / InsertAt / InsertBeforeTerminator.
// Imm and Callee are plain fields set directly after creation.
func (f *Func) NewInstr(op Op, defs, uses []Operand) *Instr {
	in := f.allocInstr()
	in.op = op
	in.defOff, in.defLen = f.carveOps(defs)
	in.useOff, in.useLen = f.carveOps(uses)
	return in
}

func (f *Func) carveOps(src []Operand) (off, n int32) {
	f.cowOps()
	off = int32(len(f.ops))
	f.ops = append(f.ops, src...)
	return off, int32(len(src))
}

// Instr returns the instruction with the given handle. It panics on
// handles that were never allocated by this function.
func (f *Func) Instr(id InstrID) *Instr {
	if id < 0 || int32(id) >= f.numInstrs {
		panic(fmt.Sprintf("ir: %s: instruction handle %d out of range [0,%d)", f.Name, id, f.numInstrs))
	}
	return &f.instrChunks[id>>instrChunkShift][id&instrChunkMask]
}

// NumInstrSlots returns the exclusive upper bound of instruction handles,
// counting detached (removed) instructions still parked in the arena.
// For the number of instructions currently in blocks, use NumInstrs.
func (f *Func) NumInstrSlots() int { return int(f.numInstrs) }

// NumInstrs counts instructions across all (live) blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.blockList {
		n += int(b.codeLen)
	}
	return n
}

// ---- blocks ----

// NewBlock creates a block and appends it to the function.
func (f *Func) NewBlock(name string) *Block {
	id := f.numBlocks
	if int(id>>blockChunkShift) == len(f.blockChunks) {
		f.blockChunks = append(f.blockChunks, new(blockChunk))
	}
	f.numBlocks++
	b := &f.blockChunks[id>>blockChunkShift][id&blockChunkMask]
	*b = Block{ID: BlockID(id), Name: name, fn: f}
	if b.Name == "" {
		b.Name = "b" + itoa64(int64(id))
	}
	f.blockList = append(f.blockList, b)
	f.generation++
	f.cfgGeneration++
	return b
}

// Block returns the block with the given handle (live or removed). It
// panics on handles that were never allocated by this function.
func (f *Func) Block(id BlockID) *Block {
	if id < 0 || int32(id) >= f.numBlocks {
		panic(fmt.Sprintf("ir: %s: block handle %d out of range [0,%d)", f.Name, id, f.numBlocks))
	}
	return &f.blockChunks[id>>blockChunkShift][id&blockChunkMask]
}

// Blocks returns the live blocks in layout order (entry first). The
// returned slice is a view owned by the function: treat it as read-only,
// and do not hold it across NewBlock or SetBlockOrder.
func (f *Func) Blocks() []*Block { return f.blockList }

// Entry returns the function entry block.
func (f *Func) Entry() *Block {
	if len(f.blockList) == 0 {
		panic("ir: function has no blocks")
	}
	return f.blockList[0]
}

// NumBlocks returns the exclusive upper bound of block IDs (including
// blocks removed from the layout); suitable for sizing dense per-block
// tables. For the live block count use len(f.Blocks()).
func (f *Func) NumBlocks() int { return int(f.numBlocks) }

// SetBlockOrder replaces the live block layout. ids must be distinct
// handles of this function; blocks left out become detached (their
// storage remains valid but they no longer print, execute or analyze).
// This is how CFG cleanup removes unreachable blocks.
func (f *Func) SetBlockOrder(ids []BlockID) {
	nl := make([]*Block, len(ids))
	for i, id := range ids {
		nl[i] = f.Block(id)
	}
	f.blockList = nl
	f.generation++
	f.cfgGeneration++
}

// AddEdge records a CFG edge from b to s, keeping Preds/Succs consistent.
func (f *Func) AddEdge(b, s *Block) {
	f.cowEdges()
	b.succs = append(b.succs, s.ID)
	s.preds = append(s.preds, b.ID)
	f.generation++
	f.cfgGeneration++
}

// ---- paper metrics ----

// CountMoves returns the number of Copy instructions in the function —
// the metric of the paper's Tables 2-4. A ParCopy counts one move per
// destination that differs from its source; callers that care about the
// exact cost of copy cycles should sequentialize ParCopies first.
func (f *Func) CountMoves() int {
	n := 0
	for _, b := range f.blockList {
		for _, in := range b.Instrs() {
			switch in.op {
			case Copy:
				if in.Def(0) != in.Use(0) {
					n++
				}
			case ParCopy:
				for i := 0; i < in.NumDefs(); i++ {
					if in.Def(i) != in.Use(i) {
						n++
					}
				}
			}
		}
	}
	return n
}

// WeightedMoves returns the 5^depth weighted move count of Table 5: each
// move weighs 5^d where d is the loop depth of its block ("a static
// approximation where each loop would contain 5 iterations").
func (f *Func) WeightedMoves() int64 {
	var n int64
	for _, b := range f.blockList {
		w := int64(1)
		for i := 0; i < b.LoopDepth; i++ {
			w *= 5
		}
		for _, in := range b.Instrs() {
			switch in.op {
			case Copy:
				if in.Def(0) != in.Use(0) {
					n += w
				}
			case ParCopy:
				for i := 0; i < in.NumDefs(); i++ {
					if in.Def(i) != in.Use(i) {
						n += w
					}
				}
			}
		}
	}
	return n
}

// CountPhis returns the number of φ instructions in the function — an
// IR-provenance counter: positive while in SSA form, zero after a
// successful out-of-SSA translation.
func (f *Func) CountPhis() int {
	n := 0
	for _, b := range f.blockList {
		n += b.NumPhis()
	}
	return n
}

// CountPins returns the number of pinned operands (definitions and
// uses) — the renaming-constraint load the out-of-pinned-SSA
// translation must discharge. Collect phases raise it, the translation
// consumes it back to zero.
func (f *Func) CountPins() int {
	n := 0
	for _, b := range f.blockList {
		for _, in := range b.Instrs() {
			for _, o := range in.Defs() {
				if o.Pinned() {
					n++
				}
			}
			for _, o := range in.Uses() {
				if o.Pinned() {
					n++
				}
			}
		}
	}
	return n
}
