// Wire codec for functions: MarshalV1/MarshalBinary serialize an
// ir.Func to a self-contained document and Unmarshal reads it back. The
// encoding is exact — value IDs, value names, block order,
// predecessor/successor order (which the φ argument convention depends
// on), pins, immediates and callees all round-trip — so a decoded
// function is indistinguishable from a Clone of the original: running
// the pipeline on either produces byte-identical output. That exactness
// is what lets the laocd service accept raw IR over the wire and still
// honor the Tables 1-5 byte-identity gate, and what makes content hashes
// of the encoding stable cache keys.
//
// Two schemas exist, one readable and one binary:
//
//   - "laoc-ir-v1" walks the CFG and emits one JSON object per block and
//     instruction: the human-readable form.
//   - "laoc-ir-b1" dumps the function's slabs — value table, operand
//     slab, code slab, instruction and block arenas — behind a
//     magic/version/target-shape header (see marshalb.go). Because the
//     slabs are position-independent handle arrays, decoding
//     reconstructs the arenas verbatim, so a b1 round trip is bit-exact
//     down to span offsets (Clone-equivalent by memcmp, not just
//     semantically). It is also the on-disk record payload of
//     internal/cachestore.
//
// Unmarshal reads both: b1 by its magic prefix, anything else as v1
// JSON, whose schema tag must then say so.
//
// Both formats tie values to the function's own Target: the physical
// register prefix of the value table (R0..R15, P0..P7, SP — created by
// NewFunc before any virtual value) is checked on decode, so a document
// produced against a different target shape fails loudly instead of
// mis-binding registers.
package ir

import (
	"encoding/json"
	"fmt"
)

// wireFunc is the v1 top-level JSON document.
type wireFunc struct {
	// Schema tags the encoding; decoders reject unknown schemas.
	Schema string `json:"schema"`
	Name   string `json:"name"`
	// Values is the full value table in ID order (dense: Values[i].ID == i),
	// physical registers included.
	Values []wireValue `json:"values"`
	// Blocks are in f.Blocks order, which is also print order; block IDs
	// are carried explicitly because passes may have compacted the slice.
	Blocks []wireBlock `json:"blocks"`
}

// WireSchemaV1 identifies the per-instruction JSON function encoding.
const WireSchemaV1 = "laoc-ir-v1"

type wireValue struct {
	Name string `json:"n"`
	Phys bool   `json:"p,omitempty"`
}

type wireBlock struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	Depth int    `json:"depth,omitempty"`
	// Preds and Succs are indexes into the Blocks array (not block IDs),
	// in order — φ uses are parallel to Preds, Br reads Succs[0]/[1].
	Preds  []int       `json:"preds,omitempty"`
	Succs  []int       `json:"succs,omitempty"`
	Instrs []wireInstr `json:"instrs"`
}

type wireInstr struct {
	Op string `json:"op"`
	// Defs and Uses are operand pairs [valueID, pinID]; pinID -1 means
	// unpinned.
	Defs   [][2]int `json:"defs,omitempty"`
	Uses   [][2]int `json:"uses,omitempty"`
	Imm    int64    `json:"imm,omitempty"`
	Callee string   `json:"callee,omitempty"`
}

// opByName inverts opNames for decoding.
var opByName = func() map[string]Op {
	m := make(map[string]Op, opCount)
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// MarshalV1 encodes f in the v1 JSON schema. The encoding is
// deterministic: the same function state always yields the same bytes,
// so hashes of the output are stable content keys.
func MarshalV1(f *Func) ([]byte, error) {
	statMarshalsV1.Add(1)
	w := wireFunc{Schema: WireSchemaV1, Name: f.Name}
	w.Values = make([]wireValue, len(f.vals))
	for i, v := range f.vals {
		w.Values[i] = wireValue{Name: v.name, Phys: v.kind == Physical}
	}
	blkIdx := make(map[BlockID]int, len(f.blockList))
	for i, b := range f.blockList {
		blkIdx[b.ID] = i
	}
	enc := func(ops []Operand) ([][2]int, error) {
		if len(ops) == 0 {
			return nil, nil
		}
		out := make([][2]int, len(ops))
		for i, o := range ops {
			if o.Val == NoValue {
				return nil, fmt.Errorf("ir: marshal %s: missing operand value", f.Name)
			}
			pin := -1
			if o.Pinned() {
				pin = int(o.Pin())
			}
			out[i] = [2]int{int(o.Val), pin}
		}
		return out, nil
	}
	for _, b := range f.blockList {
		wb := wireBlock{ID: int(b.ID), Name: b.Name, Depth: b.LoopDepth}
		for _, p := range b.Preds() {
			i, ok := blkIdx[p]
			if !ok {
				return nil, fmt.Errorf("ir: marshal %s: block %v has detached pred %v", f.Name, b, f.Block(p))
			}
			wb.Preds = append(wb.Preds, i)
		}
		for _, s := range b.Succs() {
			i, ok := blkIdx[s]
			if !ok {
				return nil, fmt.Errorf("ir: marshal %s: block %v has detached succ %v", f.Name, b, f.Block(s))
			}
			wb.Succs = append(wb.Succs, i)
		}
		wb.Instrs = make([]wireInstr, b.NumInstrs())
		for i, in := range b.Instrs() {
			defs, err := enc(in.Defs())
			if err != nil {
				return nil, err
			}
			uses, err := enc(in.Uses())
			if err != nil {
				return nil, err
			}
			wb.Instrs[i] = wireInstr{Op: in.Op().String(), Defs: defs, Uses: uses, Imm: in.Imm, Callee: in.Callee}
		}
		w.Blocks = append(w.Blocks, wb)
	}
	return json.Marshal(&w)
}

// Unmarshal decodes a function from the wire format: the b1 binary
// schema when data starts with its magic, else the v1 JSON schema. The
// result owns a fresh Target; the document's physical-register prefix
// must match the target shape exactly.
func Unmarshal(data []byte) (*Func, error) {
	if IsBinary(data) {
		statUnmarshalsB1.Add(1)
		return unmarshalB1(data)
	}
	var w wireFunc
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("ir: unmarshal: %v", err)
	}
	if w.Schema != WireSchemaV1 {
		return nil, fmt.Errorf("ir: unmarshal: unknown schema %q (want %q or %q)", w.Schema, WireSchemaV1, WireSchemaB1)
	}
	statUnmarshalsV1.Add(1)
	return unmarshalV1(&w)
}

func unmarshalV1(w *wireFunc) (*Func, error) {
	if w.Name == "" {
		return nil, fmt.Errorf("ir: unmarshal: function has no name")
	}
	f := NewFunc(w.Name)
	nphys := len(f.vals)
	if len(w.Values) < nphys {
		return nil, fmt.Errorf("ir: unmarshal %s: value table shorter than the %d target registers", w.Name, nphys)
	}
	for i := 0; i < nphys; i++ {
		if w.Values[i].Name != f.vals[i].name || !w.Values[i].Phys {
			return nil, fmt.Errorf("ir: unmarshal %s: value %d is %q/phys=%v, target expects register %q",
				w.Name, i, w.Values[i].Name, w.Values[i].Phys, f.vals[i].name)
		}
	}
	for i := nphys; i < len(w.Values); i++ {
		wv := w.Values[i]
		if wv.Phys {
			return nil, fmt.Errorf("ir: unmarshal %s: physical value %q outside the target prefix", w.Name, wv.Name)
		}
		if wv.Name == "" {
			return nil, fmt.Errorf("ir: unmarshal %s: value %d has no name", w.Name, i)
		}
		f.newValue(wv.Name, Virtual)
	}

	if len(w.Blocks) == 0 {
		return nil, fmt.Errorf("ir: unmarshal %s: function has no blocks", w.Name)
	}
	maxID := -1
	for _, wb := range w.Blocks {
		if wb.ID < 0 {
			return nil, fmt.Errorf("ir: unmarshal %s: negative block ID %d", w.Name, wb.ID)
		}
		if wb.Name == "" {
			return nil, fmt.Errorf("ir: unmarshal %s: block %d has no name", w.Name, wb.ID)
		}
		if wb.ID > maxID {
			maxID = wb.ID
		}
	}
	// The v1 document carries explicit, possibly non-dense block IDs
	// (passes may have compacted the layout before encoding). Allocate
	// the full arena range so handles resolve, then install the layout.
	for i := 0; i <= maxID; i++ {
		f.NewBlock("")
	}
	order := make([]BlockID, len(w.Blocks))
	seen := make([]bool, maxID+1)
	for i, wb := range w.Blocks {
		if seen[wb.ID] {
			return nil, fmt.Errorf("ir: unmarshal %s: duplicate block ID %d", w.Name, wb.ID)
		}
		seen[wb.ID] = true
		order[i] = BlockID(wb.ID)
		b := f.Block(BlockID(wb.ID))
		b.Name = wb.Name
		b.LoopDepth = wb.Depth
	}
	f.SetBlockOrder(order)

	val := func(id int) (ValueID, error) {
		if id < 0 || id >= len(f.vals) {
			return NoValue, fmt.Errorf("ir: unmarshal %s: value ID %d out of range", w.Name, id)
		}
		return ValueID(id), nil
	}
	dec := func(pairs [][2]int) ([]Operand, error) {
		if len(pairs) == 0 {
			return nil, nil
		}
		out := make([]Operand, len(pairs))
		for i, p := range pairs {
			v, err := val(p[0])
			if err != nil {
				return nil, err
			}
			out[i] = Operand{Val: v}
			if p[1] >= 0 {
				pin, err := val(p[1])
				if err != nil {
					return nil, err
				}
				out[i] = out[i].WithPin(pin)
			}
		}
		return out, nil
	}
	ref := func(idx int) (BlockID, error) {
		if idx < 0 || idx >= len(w.Blocks) {
			return NoBlock, fmt.Errorf("ir: unmarshal %s: block index %d out of range", w.Name, idx)
		}
		return BlockID(w.Blocks[idx].ID), nil
	}
	for _, wb := range w.Blocks {
		b := f.Block(BlockID(wb.ID))
		for _, pi := range wb.Preds {
			p, err := ref(pi)
			if err != nil {
				return nil, err
			}
			b.preds = append(b.preds, p)
		}
		for _, si := range wb.Succs {
			s, err := ref(si)
			if err != nil {
				return nil, err
			}
			b.succs = append(b.succs, s)
		}
		for _, wi := range wb.Instrs {
			op, ok := opByName[wi.Op]
			if !ok {
				return nil, fmt.Errorf("ir: unmarshal %s: unknown op %q", w.Name, wi.Op)
			}
			defs, err := dec(wi.Defs)
			if err != nil {
				return nil, err
			}
			uses, err := dec(wi.Uses)
			if err != nil {
				return nil, err
			}
			in := f.NewInstr(op, defs, uses)
			in.Imm = wi.Imm
			in.Callee = wi.Callee
			b.Append(in)
		}
	}
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("ir: unmarshal: %v", err)
	}
	return f, nil
}
