package ir_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/ssa"
	"outofssa/internal/workload"
)

func exampleFunc(t testing.TB) *ir.Func {
	t.Helper()
	f, err := lai.Parse(".func f\n.input A:R0\nentry:\n    add B, A, A\n    call C = g(B)\n    ret C\n.endfunc\n")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBinaryRejects pins the b1 decoder's framing validation: bad
// magic, bad version, truncation at every prefix length, hostile
// element counts and trailing garbage all fail with an error — never a
// panic, never a silently wrong function.
func TestBinaryRejects(t *testing.T) {
	doc, err := ir.MarshalBinary(exampleFunc(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Unmarshal(doc); err != nil {
		t.Fatalf("pristine document rejected: %v", err)
	}

	// Every proper prefix is truncated somewhere: header, a section
	// count, or mid-payload.
	for n := range doc {
		if n == len(doc) {
			continue
		}
		trunc := doc[:n]
		if !ir.IsBinary(trunc) {
			continue // magic itself truncated: falls through to the v1 decoder
		}
		if _, err := ir.Unmarshal(trunc); err == nil {
			t.Fatalf("truncated document (%d of %d bytes) decoded without error", n, len(doc))
		}
	}

	// Trailing garbage after a complete document.
	if _, err := ir.Unmarshal(append(append([]byte{}, doc...), 0xEE)); err == nil {
		t.Error("document with trailing bytes decoded without error")
	}

	// Version bump.
	bad := append([]byte{}, doc...)
	bad[len(ir.WireSchemaB1)+1] = 9 // version u32 low byte, right after magic
	if _, err := ir.Unmarshal(bad); err == nil {
		t.Error("unsupported version decoded without error")
	}

	// A hostile count: set the vnames count to 0xFFFFFFFF. The decoder
	// must reject it against the remaining length instead of allocating.
	bad = append([]byte{}, doc...)
	// magic + version(4) + nphys(4) + name(4+len) → vnames count offset.
	off := len(ir.WireSchemaB1) + 1 + 4 + 4 + 4 + len("f")
	for i := 0; i < 4; i++ {
		bad[off+i] = 0xFF
	}
	if _, err := ir.Unmarshal(bad); err == nil {
		t.Error("hostile element count decoded without error")
	}

	// A name byte that is not UTF-8: the v1 schema could not carry it,
	// so the decoder refuses it and names where it sits.
	bad = append([]byte{}, doc...)
	nameOff := len(ir.WireSchemaB1) + 1 + 4 + 4 + 4
	bad[nameOff] = 0xFF
	if _, err := ir.Unmarshal(bad); err == nil {
		t.Error("name with invalid UTF-8 decoded without error")
	} else if want := fmt.Sprintf("byte %d", nameOff); !strings.Contains(err.Error(), want) {
		t.Errorf("invalid UTF-8 error %q does not name %s", err, want)
	}

	// Flip every single byte in turn: each flip must either fail to
	// decode or decode to a function that still passes Verify (the
	// decoder may legitimately accept e.g. a changed immediate, but it
	// must never hand back a structurally broken function or panic).
	for i := range doc {
		mut := append([]byte{}, doc...)
		mut[i] ^= 0x40
		g, err := ir.Unmarshal(mut)
		if err != nil {
			continue
		}
		if err := g.Verify(); err != nil {
			t.Fatalf("byte %d flipped: decoder accepted a function that fails Verify: %v", i, err)
		}
	}
}

// TestBinaryAppend proves AppendBinary really appends: the prefix is
// preserved and the suffix is exactly MarshalBinary's output, so
// callers can pack many documents into one buffer.
func TestBinaryAppend(t *testing.T) {
	f := exampleFunc(t)
	solo, err := ir.MarshalBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("segment-header")
	buf, err := ir.AppendBinary(append([]byte{}, prefix...), f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatal("AppendBinary clobbered the prefix")
	}
	if !bytes.Equal(buf[len(prefix):], solo) {
		t.Fatal("AppendBinary suffix differs from MarshalBinary output")
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes to Unmarshal; whenever they
// decode, the function must re-encode in both schemas, each re-decode
// to the same print, b1 must be a byte fixed point, and the b1 decode
// must rebuild the decoded function's arenas exactly — the cross-decode
// discipline that keeps the schemas interchangeable on the wire and on
// disk.
func FuzzWireRoundTrip(f *testing.F) {
	for _, s := range workload.All() {
		g := s.Funcs[0].Clone()
		ssa.MustBuild(g)
		// Each suite's first function before and after SSA
		// construction (φs, pins, generated names), in both schemas.
		for _, fn := range []*ir.Func{s.Funcs[0], g} {
			if v1, err := ir.MarshalV1(fn); err == nil {
				f.Add(v1)
			}
			if b1, err := ir.MarshalBinary(fn); err == nil {
				f.Add(b1)
			}
		}
	}
	f.Add([]byte("laoc-ir-b1\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fn, err := ir.Unmarshal(data)
		if err != nil {
			return
		}
		want := fn.String()
		b1, err := ir.MarshalBinary(fn)
		if err != nil {
			t.Fatalf("decoded function does not re-encode (b1): %v", err)
		}
		v1, err := ir.MarshalV1(fn)
		if err != nil {
			t.Fatalf("decoded function does not re-encode (v1): %v", err)
		}
		for _, enc := range [][]byte{b1, v1} {
			g, err := ir.Unmarshal(enc)
			if err != nil {
				t.Fatalf("re-encoded document does not decode: %v", err)
			}
			if g.String() != want {
				t.Fatalf("cross-decode print drift:\n--- want\n%s\n--- got\n%s", want, g.String())
			}
		}
		// b1 exactness: a byte fixed point, and the arenas it rebuilds
		// are the decoded function's own (memcmp-equivalent, like Clone).
		gb, _ := ir.Unmarshal(b1)
		if encb, _ := ir.MarshalBinary(gb); !bytes.Equal(encb, b1) {
			t.Fatal("b1 is not a byte fixed point")
		}
		if gb.ArenaChecksum() != fn.ArenaChecksum() {
			t.Fatal("b1 round trip changed the arena bytes")
		}
	})
}

// BenchmarkWireCodec measures encode and decode for the v1 JSON and b1
// binary schemas over the full Table-2 corpus (every workload suite
// function).
func BenchmarkWireCodec(b *testing.B) {
	var funcs []*ir.Func
	for _, s := range workload.All() {
		funcs = append(funcs, s.Funcs...)
	}
	schemas := []struct {
		name    string
		marshal func(*ir.Func) ([]byte, error)
		docs    [][]byte
		bytes   int64
	}{{name: "v1", marshal: ir.MarshalV1}, {name: "b1", marshal: ir.MarshalBinary}}
	for i := range schemas {
		sc := &schemas[i]
		for _, f := range funcs {
			d, err := sc.marshal(f)
			if err != nil {
				b.Fatal(err)
			}
			sc.docs = append(sc.docs, d)
			sc.bytes += int64(len(d))
		}
	}
	for _, sc := range schemas {
		b.Run("encode/"+sc.name, func(b *testing.B) {
			b.SetBytes(sc.bytes)
			for i := 0; i < b.N; i++ {
				for _, f := range funcs {
					if _, err := sc.marshal(f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run("decode/"+sc.name, func(b *testing.B) {
			b.SetBytes(sc.bytes)
			for i := 0; i < b.N; i++ {
				for _, d := range sc.docs {
					if _, err := ir.Unmarshal(d); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
