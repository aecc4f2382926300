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
			continue // magic itself truncated: falls through to the JSON probe
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

	// A name byte that is not UTF-8: the JSON schemas could not carry it,
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

// TestDetectSchema pins the negotiation helper on all three schemas
// plus junk.
func TestDetectSchema(t *testing.T) {
	f := exampleFunc(t)
	v2, _ := ir.Marshal(f)
	v1, _ := ir.MarshalV1(f)
	b1, _ := ir.MarshalBinary(f)
	for _, tc := range []struct {
		data []byte
		want string
	}{
		{v2, ir.WireSchemaV2},
		{v1, ir.WireSchemaV1},
		{b1, ir.WireSchemaB1},
		{[]byte(`{"schema":"laoc-ir-v9"}`), ""},
		{[]byte("laoc-ir-b9\x00junk"), ""},
		{[]byte("not even close"), ""},
		{nil, ""},
	} {
		if got := ir.DetectSchema(tc.data); got != tc.want {
			t.Errorf("DetectSchema(%.20q) = %q, want %q", tc.data, got, tc.want)
		}
	}
}

// FuzzWireRoundTrip feeds arbitrary bytes to Unmarshal; whenever they
// decode, the function must re-encode in all three schemas, each
// re-decode to the same print, and the arena schemas (v2, b1) must be
// byte fixed points — the cross-decode discipline that keeps the
// schemas interchangeable on the wire and on disk.
func FuzzWireRoundTrip(f *testing.F) {
	for _, s := range workload.All() {
		fn := s.Funcs[0]
		if v2, err := ir.Marshal(fn); err == nil {
			f.Add(v2)
		}
		if v1, err := ir.MarshalV1(fn); err == nil {
			f.Add(v1)
		}
		if b1, err := ir.MarshalBinary(fn); err == nil {
			f.Add(b1)
		}
		g := fn.Clone()
		ssa.MustBuild(g)
		if b1, err := ir.MarshalBinary(g); err == nil {
			f.Add(b1)
		}
	}
	f.Add([]byte("laoc-ir-b1\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fn, err := ir.Unmarshal(data)
		if err != nil {
			return
		}
		want := fn.String()
		v2, err := ir.Marshal(fn)
		if err != nil {
			t.Fatalf("decoded function does not re-encode (v2): %v", err)
		}
		b1, err := ir.MarshalBinary(fn)
		if err != nil {
			t.Fatalf("decoded function does not re-encode (b1): %v", err)
		}
		v1, err := ir.MarshalV1(fn)
		if err != nil {
			t.Fatalf("decoded function does not re-encode (v1): %v", err)
		}
		for _, enc := range [][]byte{v2, b1, v1} {
			g, err := ir.Unmarshal(enc)
			if err != nil {
				t.Fatalf("re-encoded document does not decode: %v", err)
			}
			if g.String() != want {
				t.Fatalf("cross-decode print drift:\n--- want\n%s\n--- got\n%s", want, g.String())
			}
		}
		// Arena-schema byte fixed points (memcmp exactness).
		g2, _ := ir.Unmarshal(v2)
		if enc2, _ := ir.Marshal(g2); !bytes.Equal(enc2, v2) {
			t.Fatal("v2 is not a byte fixed point")
		}
		gb, _ := ir.Unmarshal(b1)
		if encb, _ := ir.MarshalBinary(gb); !bytes.Equal(encb, b1) {
			t.Fatal("b1 is not a byte fixed point")
		}
		if gb.ArenaChecksum() != g2.ArenaChecksum() {
			t.Fatal("v2 and b1 decode to different arena bytes")
		}
	})
}

// BenchmarkWireCodec measures encode and decode for the v2 JSON and b1
// binary schemas over the full Table-2 corpus (every workload suite
// function) — the numbers behind BENCH_persist.json's codec section
// and the "b1 decode ≥ 3× v2" acceptance bar.
func BenchmarkWireCodec(b *testing.B) {
	var funcs []*ir.Func
	for _, s := range workload.All() {
		funcs = append(funcs, s.Funcs...)
	}
	var v2docs, b1docs [][]byte
	for _, f := range funcs {
		d2, err := ir.Marshal(f)
		if err != nil {
			b.Fatal(err)
		}
		d1, err := ir.MarshalBinary(f)
		if err != nil {
			b.Fatal(err)
		}
		v2docs = append(v2docs, d2)
		b1docs = append(b1docs, d1)
	}
	bytesOf := func(docs [][]byte) int64 {
		var n int64
		for _, d := range docs {
			n += int64(len(d))
		}
		return n
	}
	b.Run("encode/v2", func(b *testing.B) {
		b.SetBytes(bytesOf(v2docs))
		for i := 0; i < b.N; i++ {
			for _, f := range funcs {
				if _, err := ir.Marshal(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encode/b1", func(b *testing.B) {
		b.SetBytes(bytesOf(b1docs))
		for i := 0; i < b.N; i++ {
			for _, f := range funcs {
				if _, err := ir.MarshalBinary(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode/v2", func(b *testing.B) {
		b.SetBytes(bytesOf(v2docs))
		for i := 0; i < b.N; i++ {
			for _, d := range v2docs {
				if _, err := ir.Unmarshal(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode/b1", func(b *testing.B) {
		b.SetBytes(bytesOf(b1docs))
		for i := 0; i < b.N; i++ {
			for _, d := range b1docs {
				if _, err := ir.Unmarshal(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
