package ir_test

import (
	"bytes"
	"strings"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/pipeline"
	"outofssa/internal/ssa"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// roundTrip marshals, unmarshals and re-marshals f through both wire
// schemas, failing on any decode error or byte drift. Each schema's
// encoding must be a byte fixed point of its round trip, the b1 decode
// must rebuild the original's arenas exactly, and the b1-decoded
// function must re-encode to the original's v1 bytes — the schemas are
// interchangeable on the wire.
func roundTrip(t *testing.T, f *ir.Func) {
	t.Helper()
	v1, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatalf("%s: MarshalV1: %v", f.Name, err)
	}
	g1, err := ir.Unmarshal(v1)
	if err != nil {
		t.Fatalf("%s: Unmarshal(v1): %v", f.Name, err)
	}
	if got, want := g1.String(), f.String(); got != want {
		t.Fatalf("%s: v1-decoded function prints differently:\n--- original\n%s\n--- decoded\n%s", f.Name, want, got)
	}
	v12, err := ir.MarshalV1(g1)
	if err != nil {
		t.Fatalf("%s: re-MarshalV1: %v", f.Name, err)
	}
	if !bytes.Equal(v1, v12) {
		t.Fatalf("%s: v1 encoding is not a fixed point of the round trip", f.Name)
	}

	b1, err := ir.MarshalBinary(f)
	if err != nil {
		t.Fatalf("%s: MarshalBinary: %v", f.Name, err)
	}
	if !ir.IsBinary(b1) || ir.IsBinary(v1) {
		t.Fatalf("%s: IsBinary misclassifies the b1 or v1 document", f.Name)
	}
	gb, err := ir.Unmarshal(b1)
	if err != nil {
		t.Fatalf("%s: Unmarshal(b1): %v", f.Name, err)
	}
	if got, want := gb.String(), f.String(); got != want {
		t.Fatalf("%s: b1-decoded function prints differently:\n--- original\n%s\n--- decoded\n%s", f.Name, want, got)
	}
	// Arena exactness, not just print equality: the decoded function's
	// slab bytes must witness-match the original's (memcmp-equivalent,
	// like Clone), and re-encoding must be a byte fixed point.
	if gb.ArenaChecksum() != f.ArenaChecksum() {
		t.Fatalf("%s: b1 round trip changed the arena checksum", f.Name)
	}
	b12, err := ir.MarshalBinary(gb)
	if err != nil {
		t.Fatalf("%s: re-MarshalBinary: %v", f.Name, err)
	}
	if !bytes.Equal(b1, b12) {
		t.Fatalf("%s: b1 encoding is not a fixed point of the round trip", f.Name)
	}
	// Cross-schema: the b1-decoded function must re-encode to the very
	// same v1 bytes as the original.
	vx, err := ir.MarshalV1(gb)
	if err != nil {
		t.Fatalf("%s: MarshalV1(b1-decoded): %v", f.Name, err)
	}
	if !bytes.Equal(v1, vx) {
		t.Fatalf("%s: b1-decoded function re-encodes to different v1 bytes", f.Name)
	}
}

// TestMarshalRoundTripSuites round-trips every workload suite function,
// pre-SSA and in pinned SSA form (φs, pins, generated value names).
func TestMarshalRoundTripSuites(t *testing.T) {
	for _, s := range workload.All() {
		for _, f := range s.Funcs {
			roundTrip(t, f)
			g := f.Clone()
			ssa.MustBuild(g)
			roundTrip(t, g)
		}
	}
}

// TestMarshalPipelineIdentity proves the codec's contract: running the
// pipeline on a decoded function produces byte-identical output to
// running it on a clone of the original.
func TestMarshalPipelineIdentity(t *testing.T) {
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		f := testprog.Rand(seed, testprog.RandOptions{MaxDepth: 4, Vars: 4, StmtsPerBlock: 4, Calls: true, Stack: true})
		data, err := ir.MarshalBinary(f)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ir.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		want := f.Clone()
		if _, err := pipeline.Run(want, conf); err != nil {
			t.Fatalf("seed %d: pipeline on original: %v", seed, err)
		}
		if _, err := pipeline.Run(g, conf); err != nil {
			t.Fatalf("seed %d: pipeline on decoded: %v", seed, err)
		}
		if g.String() != want.String() {
			t.Fatalf("seed %d: pipeline output differs between original and decoded input", seed)
		}
	}
}

// TestMarshalRejects pins the v1 decoder's validation: bad schema tag,
// unknown op, out-of-range handle and an empty document all fail
// loudly. A retired or foreign tag is named in the error.
func TestMarshalRejects(t *testing.T) {
	f, err := lai.Parse(".func f\n.input A:R0\nadd B, A, A\nret B\n.endfunc\n")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		doc      []byte
		old, new string
	}{
		{"v1-schema", v1, `"laoc-ir-v1"`, `"laoc-ir-v9"`},
		{"v1-op", v1, `"add"`, `"frob"`},
		{"v1-value-id", v1, `[[25,0]]`, `[[999,0]]`},
	} {
		bad := bytes.Replace(tc.doc, []byte(tc.old), []byte(tc.new), 1)
		if bytes.Equal(bad, tc.doc) {
			t.Fatalf("%s: test substitution %q not found in %s", tc.name, tc.old, tc.doc)
		}
		if _, err := ir.Unmarshal(bad); err == nil {
			t.Errorf("%s: corrupted document decoded without error", tc.name)
		}
	}
	if _, err := ir.Unmarshal([]byte(`{"schema":"laoc-ir-v1","name":"f","values":[],"blocks":[]}`)); err == nil {
		t.Error("empty v1 document decoded without error")
	}
	// The retired arena JSON schema, f as its last encoder wrote it: the
	// error names the tag.
	v2 := `{"schema":"laoc-ir-v2","name":"f","nphys":25,"vnames":["A","B"],"ops":[25,1,26,0,25,0,25,0,26,0],"code":[0,1,2],"instrs":[34,0,0,1,1,0,1,8,0,1,1,2,2,0,35,0,4,0,4,1,0],"blocks":[{"name":"entry","co":0,"cl":3}],"order":[0]}`
	if _, err := ir.Unmarshal([]byte(v2)); err == nil || !strings.Contains(err.Error(), `"laoc-ir-v2"`) {
		t.Errorf("v2 document: error %v does not name \"laoc-ir-v2\"", err)
	}
	// The base64'd b1 string the "ir" field once carried.
	if _, err := ir.Unmarshal([]byte(`"bGFvYy1pci1iMQA="`)); err == nil {
		t.Error("base64 string decoded without error")
	}
}
