// The "laoc-ir-b1" binary wire codec: the same arena document v2
// renders as JSON, laid out as little-endian length-prefixed sections
// behind a magic/version/target-shape header. Encoding is a few bulk
// appends over the extracted slabs; decoding is bounds-checked section
// reads followed by the shared buildArenas reconstruction, so a b1
// round trip carries exactly the v2 guarantee (Clone-equivalent by
// memcmp, byte fixed-point re-encode) without the JSON number parse on
// the hot path. b1 is the service's preferred request encoding and the
// on-disk payload of internal/cachestore.
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

// IsBinary reports whether data starts like a b1 document. JSON
// documents (v1/v2) can never match: they start with '{'.
func IsBinary(data []byte) bool { return bytes.HasPrefix(data, b1Magic) }

// MarshalBinary encodes f in the b1 binary schema. Like Marshal, the
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
// valid UTF-8: the JSON schemas cannot carry them, so a name holding them
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
	var w wireFuncV2
	w.Schema = WireSchemaB1
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
		w.Callees = append(w.Callees, wireCallee{Slot: slot, Name: r.str()})
	}
	nblocks := r.count(16)
	for i := 0; i < nblocks && r.err == nil; i++ {
		var b wireBlockV2
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
