// The "laoc-ir-b1" binary wire codec: the function's arenas laid out as
// little-endian length-prefixed sections behind a magic/version/
// target-shape header. Encoding is a few bulk appends over the
// extracted slabs; decoding is bounds-checked section reads followed by
// buildArenas, which rebuilds the arenas verbatim, so a b1 round trip is
// Clone-equivalent by memcmp and re-encodes to the same bytes. b1 is the
// service's binary request encoding and the on-disk payload of
// internal/cachestore.
//
// Layout (all integers little-endian; str = u32 length + bytes; i32s /
// i64s = u32 element count + raw two's-complement elements):
//
//	magic   "laoc-ir-b1\x00" (11 bytes, the schema tag itself)
//	version u32 (currently 1)
//	nphys   u32   — physical-register prefix length, checked on decode
//	name    str
//	vnames  u32 count, then count × str
//	ops     i32s  — operand slab, (value, biased pin) pairs
//	code    i32s  — instruction-list slab (-1 in capacity holes)
//	instrs  i64s  — instruction arena, 7 numbers per slot
//	callees u32 count, then count × (u32 slot, str name)
//	blocks  u32 count, then count × (str name, u32 depth,
//	        i32 codeOff, i32 codeLen, i32s preds, i32s succs)
//	order   i32s  — live block layout as handles
//
// Every count is validated against the remaining input before any
// allocation, so a hostile document cannot make the decoder allocate
// more than its own length.
package ir

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unicode/utf8"
)

// WireSchemaB1 identifies the binary arena encoding.
const WireSchemaB1 = "laoc-ir-b1"

// b1Magic prefixes every b1 document: the schema tag plus a NUL, which
// no JSON document can start with.
var b1Magic = []byte(WireSchemaB1 + "\x00")

// b1Version is the current binary layout version; decoders reject
// anything else.
const b1Version = 1

// arenaDoc is the function's arenas, verbatim: what b1 renders and
// what buildArenas rebuilds a function from.
type arenaDoc struct {
	Name string
	// NPhys is the length of the physical-register value prefix; must
	// match the decoder's target shape.
	NPhys int
	// VNames are the names of the virtual values (IDs NPhys and up); the
	// physical prefix is implied by the target.
	VNames []string
	// Ops is the operand slab: alternating value handle and biased pin
	// (0 = unpinned, else pin+1), two entries per operand.
	Ops []int32
	// Code is the instruction-list slab: instruction handles, with -1 in
	// unused capacity slots.
	Code []int32
	// Instrs is the instruction arena, 7 numbers per slot:
	// op, block, defOff, defLen, useOff, useLen, imm.
	Instrs []int64
	// Callees carries the sparse callee strings: pairs of arena slot and
	// name, in slot order.
	Callees []arenaCallee
	// Blocks is the block arena in handle order.
	Blocks []arenaBlock
	// Order is the live block layout (entry first) as block handles.
	Order []int32
}

type arenaCallee struct {
	Slot int32
	Name string
}

type arenaBlock struct {
	Name    string
	Depth   int
	CodeOff int32
	CodeLen int32
	Preds   []int32
	Succs   []int32
}

// IsBinary reports whether data starts like a b1 document. JSON
// documents can never match: they start with '{'.
func IsBinary(data []byte) bool { return bytes.HasPrefix(data, b1Magic) }

// MarshalBinary encodes f in the b1 binary schema. Like MarshalV1, the
// output is deterministic and a stable content key.
func MarshalBinary(f *Func) ([]byte, error) { return AppendBinary(nil, f) }

// AppendBinary appends f's b1 encoding to dst and returns the extended
// slice, for callers batching documents into one buffer (the cachestore
// segment writer does).
func AppendBinary(dst []byte, f *Func) ([]byte, error) {
	statMarshalsB1.Add(1)
	w, err := extractArenas(f)
	if err != nil {
		return nil, err
	}
	dst = append(dst, b1Magic...)
	dst = appendU32(dst, b1Version)
	dst = appendU32(dst, uint32(w.NPhys))
	dst = appendStr(dst, w.Name)
	dst = appendU32(dst, uint32(len(w.VNames)))
	for _, n := range w.VNames {
		dst = appendStr(dst, n)
	}
	dst = appendI32s(dst, w.Ops)
	dst = appendI32s(dst, w.Code)
	dst = appendI64s(dst, w.Instrs)
	dst = appendU32(dst, uint32(len(w.Callees)))
	for _, c := range w.Callees {
		dst = appendU32(dst, uint32(c.Slot))
		dst = appendStr(dst, c.Name)
	}
	dst = appendU32(dst, uint32(len(w.Blocks)))
	for i := range w.Blocks {
		b := &w.Blocks[i]
		dst = appendStr(dst, b.Name)
		dst = appendU32(dst, uint32(int32(b.Depth)))
		dst = appendU32(dst, uint32(b.CodeOff))
		dst = appendU32(dst, uint32(b.CodeLen))
		dst = appendI32s(dst, b.Preds)
		dst = appendI32s(dst, b.Succs)
	}
	dst = appendI32s(dst, w.Order)
	return dst, nil
}

// extractArenas dumps f's slabs into the arena document the b1 encoder
// renders.
func extractArenas(f *Func) (*arenaDoc, error) {
	nphys := 0
	for nphys < len(f.vals) && f.vals[nphys].kind == Physical {
		nphys++
	}
	for i := nphys; i < len(f.vals); i++ {
		if f.vals[i].kind == Physical {
			return nil, fmt.Errorf("ir: marshal %s: physical value %q outside the target prefix", f.Name, f.vals[i].name)
		}
		if f.vals[i].name == "" {
			return nil, fmt.Errorf("ir: marshal %s: value %d has no name", f.Name, i)
		}
	}
	w := arenaDoc{Name: f.Name, NPhys: nphys}
	w.VNames = make([]string, 0, len(f.vals)-nphys)
	for i := nphys; i < len(f.vals); i++ {
		w.VNames = append(w.VNames, f.vals[i].name)
	}
	w.Ops = make([]int32, 0, 2*len(f.ops))
	for _, o := range f.ops {
		w.Ops = append(w.Ops, int32(o.Val), int32(o.pin))
	}
	w.Code = make([]int32, len(f.code))
	for i, id := range f.code {
		w.Code[i] = int32(id)
	}
	w.Instrs = make([]int64, 0, 7*int(f.numInstrs))
	for id := int32(0); id < f.numInstrs; id++ {
		in := &f.instrChunks[id>>instrChunkShift][id&instrChunkMask]
		w.Instrs = append(w.Instrs,
			int64(in.op), int64(in.blk),
			int64(in.defOff), int64(in.defLen),
			int64(in.useOff), int64(in.useLen),
			in.Imm)
		if in.Callee != "" {
			w.Callees = append(w.Callees, arenaCallee{Slot: id, Name: in.Callee})
		}
	}
	w.Blocks = make([]arenaBlock, f.numBlocks)
	for id := int32(0); id < f.numBlocks; id++ {
		b := &f.blockChunks[id>>blockChunkShift][id&blockChunkMask]
		wb := arenaBlock{Name: b.Name, Depth: b.LoopDepth, CodeOff: b.codeOff, CodeLen: b.codeLen}
		for _, p := range b.preds {
			wb.Preds = append(wb.Preds, int32(p))
		}
		for _, s := range b.succs {
			wb.Succs = append(wb.Succs, int32(s))
		}
		w.Blocks[id] = wb
	}
	w.Order = make([]int32, len(f.blockList))
	for i, b := range f.blockList {
		w.Order[i] = int32(b.ID)
	}
	return &w, nil
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendI32s(dst []byte, vs []int32) []byte {
	dst = appendU32(dst, uint32(len(vs)))
	need := 4 * len(vs)
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[off+4*i:], uint32(v))
	}
	return dst
}

func appendI64s(dst []byte, vs []int64) []byte {
	dst = appendU32(dst, uint32(len(vs)))
	need := 8 * len(vs)
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[off+8*i:], uint64(v))
	}
	return dst
}

// breader is the sticky-error section reader: after the first framing
// violation every further read is a no-op and err holds the cause, so
// the decode body reads linearly without per-call error plumbing.
type breader struct {
	data []byte
	off  int
	err  error
}

func (r *breader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ir: unmarshal b1: "+format, args...)
	}
}

func (r *breader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail("truncated at byte %d (need %d more)", r.off, n)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *breader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// count reads a u32 element count and rejects any that could not fit in
// the remaining input at size bytes per element — the allocation guard.
func (r *breader) count(size int) int {
	n := r.u32()
	if r.err == nil && int64(n)*int64(size) > int64(len(r.data)-r.off) {
		r.fail("count %d at byte %d exceeds remaining input", n, r.off)
		return 0
	}
	return int(n)
}

// str reads a length-prefixed string. It rejects bytes that are not
// valid UTF-8: the v1 schema cannot carry them, so a name holding them
// would print differently once re-encoded.
func (r *breader) str() string {
	b := r.take(r.count(1))
	if utf8.Valid(b) {
		return string(b)
	}
	for i := 0; ; {
		c, n := utf8.DecodeRune(b[i:])
		if c == utf8.RuneError && n == 1 {
			r.fail("invalid UTF-8 in string at byte %d", r.off-len(b)+i)
			return ""
		}
		i += n
	}
}

func (r *breader) i32s() []int32 {
	n := r.count(4)
	b := r.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (r *breader) i64s() []int64 {
	n := r.count(8)
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func unmarshalB1(data []byte) (*Func, error) {
	r := &breader{data: data, off: len(b1Magic)}
	if v := r.u32(); r.err == nil && v != b1Version {
		return nil, fmt.Errorf("ir: unmarshal b1: unsupported version %d (want %d)", v, b1Version)
	}
	var w arenaDoc
	w.NPhys = int(r.u32())
	w.Name = r.str()
	nv := r.count(4) // 4 bytes is the floor for one encoded string
	for i := 0; i < nv && r.err == nil; i++ {
		w.VNames = append(w.VNames, r.str())
	}
	w.Ops = r.i32s()
	w.Code = r.i32s()
	w.Instrs = r.i64s()
	ncallee := r.count(8)
	for i := 0; i < ncallee && r.err == nil; i++ {
		slot := int32(r.u32())
		w.Callees = append(w.Callees, arenaCallee{Slot: slot, Name: r.str()})
	}
	nblocks := r.count(16)
	for i := 0; i < nblocks && r.err == nil; i++ {
		var b arenaBlock
		b.Name = r.str()
		b.Depth = int(int32(r.u32()))
		b.CodeOff = int32(r.u32())
		b.CodeLen = int32(r.u32())
		b.Preds = r.i32s()
		b.Succs = r.i32s()
		w.Blocks = append(w.Blocks, b)
	}
	w.Order = r.i32s()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("ir: unmarshal b1: %d trailing bytes after the document", len(data)-r.off)
	}
	return buildArenas(&w)
}

// buildArenas reconstructs a function from the b1 decoder's arena
// document, validating every handle, span and edge before trusting it
// and finishing with a full structural Verify.
func buildArenas(w *arenaDoc) (*Func, error) {
	if w.Name == "" {
		return nil, fmt.Errorf("ir: unmarshal: function has no name")
	}
	f := NewFunc(w.Name)
	if w.NPhys != len(f.vals) {
		return nil, fmt.Errorf("ir: unmarshal %s: document has %d target registers, target expects %d", w.Name, w.NPhys, len(f.vals))
	}
	for _, n := range w.VNames {
		if n == "" {
			return nil, fmt.Errorf("ir: unmarshal %s: value has no name", w.Name)
		}
		f.newValue(n, Virtual)
	}
	nv := int32(len(f.vals))

	if len(w.Ops)%2 != 0 {
		return nil, fmt.Errorf("ir: unmarshal %s: odd operand slab length %d", w.Name, len(w.Ops))
	}
	f.ops = make([]Operand, len(w.Ops)/2)
	for i := range f.ops {
		val, pin := w.Ops[2*i], w.Ops[2*i+1]
		if val < 0 || val >= nv {
			return nil, fmt.Errorf("ir: unmarshal %s: operand value %d out of range", w.Name, val)
		}
		if pin < 0 || pin > nv {
			return nil, fmt.Errorf("ir: unmarshal %s: operand pin %d out of range", w.Name, pin)
		}
		f.ops[i] = Operand{Val: ValueID(val), pin: ValueID(pin)}
	}

	if len(w.Instrs)%7 != 0 {
		return nil, fmt.Errorf("ir: unmarshal %s: instruction arena length %d not a multiple of 7", w.Name, len(w.Instrs))
	}
	nInstr := int32(len(w.Instrs) / 7)
	nBlock := int32(len(w.Blocks))

	f.code = make([]InstrID, len(w.Code))
	for i, id := range w.Code {
		if id != int32(NoInstr) && (id < 0 || id >= nInstr) {
			return nil, fmt.Errorf("ir: unmarshal %s: code slab entry %d out of range", w.Name, id)
		}
		f.code[i] = InstrID(id)
	}

	nOps := int32(len(f.ops))
	for i := int32(0); i < nInstr; i++ {
		rec := w.Instrs[7*i : 7*i+7]
		op := rec[0]
		if op < 0 || op >= int64(opCount) {
			return nil, fmt.Errorf("ir: unmarshal %s: unknown opcode %d", w.Name, op)
		}
		blk := rec[1]
		if blk != int64(NoBlock) && (blk < 0 || blk >= int64(nBlock)) {
			return nil, fmt.Errorf("ir: unmarshal %s: instruction block %d out of range", w.Name, blk)
		}
		span := func(off, n int64) error {
			if off < 0 || n < 0 || off+n > int64(nOps) {
				return fmt.Errorf("ir: unmarshal %s: operand span [%d,+%d) out of range", w.Name, off, n)
			}
			return nil
		}
		if err := span(rec[2], rec[3]); err != nil {
			return nil, err
		}
		if err := span(rec[4], rec[5]); err != nil {
			return nil, err
		}
		in := f.allocInstr()
		in.op = Op(op)
		in.blk = BlockID(blk)
		in.defOff, in.defLen = int32(rec[2]), int32(rec[3])
		in.useOff, in.useLen = int32(rec[4]), int32(rec[5])
		in.Imm = rec[6]
	}
	for _, c := range w.Callees {
		if c.Slot < 0 || c.Slot >= nInstr {
			return nil, fmt.Errorf("ir: unmarshal %s: callee slot %d out of range", w.Name, c.Slot)
		}
		f.Instr(InstrID(c.Slot)).Callee = c.Name
	}

	nCode := int32(len(f.code))
	for i, wb := range w.Blocks {
		b := f.NewBlock(wb.Name)
		if wb.Name == "" {
			return nil, fmt.Errorf("ir: unmarshal %s: block %d has no name", w.Name, i)
		}
		b.LoopDepth = wb.Depth
		if wb.CodeOff < 0 || wb.CodeLen < 0 || wb.CodeOff+wb.CodeLen > nCode {
			return nil, fmt.Errorf("ir: unmarshal %s: block %q code span [%d,+%d) out of range", w.Name, wb.Name, wb.CodeOff, wb.CodeLen)
		}
		for j := wb.CodeOff; j < wb.CodeOff+wb.CodeLen; j++ {
			if f.code[j] == NoInstr {
				return nil, fmt.Errorf("ir: unmarshal %s: block %q has a hole in its code span", w.Name, wb.Name)
			}
		}
		b.codeOff, b.codeLen, b.codeCap = wb.CodeOff, wb.CodeLen, wb.CodeLen
		edge := func(ids []int32) ([]BlockID, error) {
			if len(ids) == 0 {
				return nil, nil
			}
			out := make([]BlockID, len(ids))
			for k, id := range ids {
				if id < 0 || id >= int32(nBlock) {
					return nil, fmt.Errorf("ir: unmarshal %s: block %q edge %d out of range", w.Name, wb.Name, id)
				}
				out[k] = BlockID(id)
			}
			return out, nil
		}
		var err error
		if b.preds, err = edge(wb.Preds); err != nil {
			return nil, err
		}
		if b.succs, err = edge(wb.Succs); err != nil {
			return nil, err
		}
	}

	if len(w.Order) == 0 {
		return nil, fmt.Errorf("ir: unmarshal %s: function has no blocks", w.Name)
	}
	order := make([]BlockID, len(w.Order))
	seen := make([]bool, nBlock)
	for i, id := range w.Order {
		if id < 0 || id >= int32(nBlock) {
			return nil, fmt.Errorf("ir: unmarshal %s: layout block %d out of range", w.Name, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("ir: unmarshal %s: block %d appears twice in the layout", w.Name, id)
		}
		seen[id] = true
		order[i] = BlockID(id)
	}
	f.SetBlockOrder(order)
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("ir: unmarshal: %v", err)
	}
	return f, nil
}
