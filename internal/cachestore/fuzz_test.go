package cachestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreScan hands arbitrary bytes to the store as its only segment
// file, under a MaxBytes so small that the one Put below compacts.
// Open (torn-tail recovery), Scan and compaction must not panic. Every
// record Scan yields must re-encode to a frame that appears verbatim in
// the input: nothing is yielded that was not written intact. After one
// Put, Flush, Close and a reopen, Scan must yield those records, each
// (kind, key) once as compaction keeps it, and then the new one.
func FuzzStoreScan(f *testing.F) {
	// The seed is a segment holding TestRoundTrip's records, whole, with
	// a torn tail, and with a flipped payload byte.
	var seg []byte
	for _, r := range []*Record{
		rec(KindResult, 1, "code-one"),
		rec(KindDecode, 2, "b1-doc-bytes"),
		{Kind: KindResult, Key: 3, Payload: []byte("deg"), Name: "g", Degraded: true},
		{Kind: KindDecode, Key: 4, Payload: nil, Name: ""},
	} {
		seg = encodeRecord(seg, r)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	flipped := bytes.Clone(seg)
	flipped[40] ^= 0x10
	f.Add(flipped)
	f.Add(append(bytes.Clone(seg), seg[:30]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(segPattern, 0)), data, 0o666); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte // the frames a compaction keeps, in scan order
		seen := map[[2]uint64]bool{}
		for _, r := range collect(t, s) {
			frame := encodeRecord(nil, r)
			if !bytes.Contains(data, frame) {
				t.Fatalf("Scan yielded %+v, whose frame is not in the input", r)
			}
			if k := [2]uint64{uint64(r.Kind), r.Key}; !seen[k] {
				seen[k] = true
				want = append(want, frame)
			}
		}
		added := &Record{Kind: KindResult, Name: "added", Payload: []byte("new")}
		for seen[[2]uint64{uint64(KindResult), added.Key}] {
			added.Key++
		}
		want = append(want, encodeRecord(nil, added))
		s.Put(added)
		s.Flush()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Compactions != 1 {
			t.Fatalf("%d compactions after one Put past MaxBytes, want 1", st.Compactions)
		}

		s2, err := Open(dir, Options{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		var got [][]byte
		for _, r := range collect(t, s2) {
			got = append(got, encodeRecord(nil, r))
		}
		if len(got) != len(want) {
			t.Fatalf("reopened store scans %d records, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d after reopen:\n%x\nwant:\n%x", i, got[i], want[i])
			}
		}
	})
}
