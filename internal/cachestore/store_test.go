package cachestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func rec(kind Kind, key uint64, payload string) *Record {
	return &Record{Kind: kind, Key: key, Payload: []byte(payload),
		Name: fmt.Sprintf("f%d", key), Moves: int(key % 7), Instrs: int(key % 31), FellBack: key%2 == 0}
}

func collect(t *testing.T, s *Store) []*Record {
	t.Helper()
	var out []*Record
	if err := s.Scan(func(r *Record) bool { out = append(out, r); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRoundTrip pins the record frame: both kinds, all counters, and
// payload bytes survive a write-reopen-scan cycle.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: FsyncAlways})
	want := []*Record{
		rec(KindResult, 1, "code-one"),
		rec(KindDecode, 2, "b1-doc-bytes"),
		{Kind: KindResult, Key: 3, Payload: []byte("deg"), Name: "g", Degraded: true},
		{Kind: KindDecode, Key: 4, Payload: nil, Name: ""},
	}
	for _, r := range want {
		s.Put(r)
	}
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Options{})
	got := collect(t, s2)
	if len(got) != len(want) {
		t.Fatalf("scan yielded %d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Kind != w.Kind || g.Key != w.Key || !bytes.Equal(g.Payload, w.Payload) ||
			g.Name != w.Name || g.Moves != w.Moves || g.Instrs != w.Instrs ||
			g.FellBack != w.FellBack || g.Degraded != w.Degraded {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, g, w)
		}
	}
	st := s2.Stats()
	if st.ScanRecords != int64(len(want)) || st.CorruptDropped != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("unexpected stats after clean scan: %+v", st)
	}
}

// activeSegment returns the path of the single highest-numbered
// segment with content.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := ""
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".laoc" {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return last
}

// TestTornTailRecovery cuts the newest segment at every possible byte
// length and reopens: recovery must truncate to the last whole record,
// keep everything before it, and leave the store appendable.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: FsyncAlways})
	s.Put(rec(KindResult, 1, "first"))
	s.Put(rec(KindDecode, 2, "second"))
	s.Flush()
	s.Close()
	seg := lastSegment(t, dir)
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	oneRec := int64(0)
	{
		n := frameLen(whole)
		if n <= 0 {
			t.Fatal("segment does not start with a valid frame")
		}
		oneRec = n
	}

	for cut := len(whole) - 1; cut > 0; cut -= 7 {
		dir2 := t.TempDir()
		seg2 := filepath.Join(dir2, filepath.Base(seg))
		if err := os.WriteFile(seg2, whole[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		s2 := openT(t, dir2, Options{Fsync: FsyncAlways})
		got := collect(t, s2)
		wantRecs := 0
		if int64(cut) >= oneRec {
			wantRecs = 1
		}
		if int64(cut) == int64(len(whole)) {
			wantRecs = 2
		}
		if len(got) != wantRecs {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), wantRecs)
		}
		if st := s2.Stats(); st.TruncatedBytes == 0 {
			t.Fatalf("cut at %d: no torn-tail bytes counted", cut)
		}
		// The store must still append cleanly after recovery.
		s2.Put(rec(KindResult, 99, "after-recovery"))
		s2.Flush()
		got = collect(t, s2)
		if len(got) != wantRecs+1 || got[len(got)-1].Key != 99 {
			t.Fatalf("cut at %d: append after recovery not visible (got %d records)", cut, len(got))
		}
		s2.Close()
	}
}

// TestBitFlipSkipped flips one byte in every position of a
// mid-sequence record: scan must drop exactly the damaged record (or
// resync past worse damage), never yield wrong bytes, and count the
// corruption. This is the faultinject.InjectCachePoison analogue at
// the persistence layer.
func TestBitFlipSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: FsyncAlways})
	s.Put(rec(KindResult, 1, "aaaa"))
	s.Put(rec(KindResult, 2, "bbbb"))
	s.Put(rec(KindResult, 3, "cccc"))
	s.Flush()
	s.Close()
	seg := lastSegment(t, dir)
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	first := frameLen(whole)
	second := frameLen(whole[first:])
	if first <= 0 || second <= 0 {
		t.Fatal("bad segment framing")
	}

	for off := first; off < first+second; off++ {
		data := append([]byte{}, whole...)
		data[off] ^= 0x01
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, filepath.Base(seg)), data, 0o666); err != nil {
			t.Fatal(err)
		}
		s2 := openT(t, dir2, Options{})
		got := collect(t, s2)
		// Record 2 must be gone or bit-exact impossible — and records 1
		// and 3 must survive whenever framing allows resync. Record 1 is
		// before the damage: always present.
		if len(got) == 0 || got[0].Key != 1 || string(got[0].Payload) != "aaaa" {
			t.Fatalf("flip at %d: record before the damage was lost", off)
		}
		for _, g := range got {
			if g.Key == 2 && string(g.Payload) != "bbbb" {
				t.Fatalf("flip at %d: damaged record served with wrong bytes", off)
			}
			if g.Key == 2 {
				// Served intact: the flip must have been absorbed by a
				// non-checksummed region — there is none (every body and
				// checksum byte is covered), except a flip inside the
				// frame header that still framed identically, which the
				// checksum over the body would catch. Reaching here with
				// intact bytes is only possible if the flip landed in the
				// checksum... which makes verification fail. So: never.
				t.Fatalf("flip at %d: damaged record decoded successfully", off)
			}
		}
		st := s2.Stats()
		if st.CorruptDropped == 0 {
			t.Fatalf("flip at %d: corruption not counted (got %d records)", off, len(got))
		}
		s2.Close()
	}
}

// TestCompaction fills the store past its cap with half-dead keys and
// checks that compaction drops the dead ones, rewrites the live ones,
// shrinks the disk, and survives a reopen.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	live := func(k Kind, key uint64) bool { return key%2 == 0 }
	s := openT(t, dir, Options{MaxBytes: 4096, Live: live, Fsync: FsyncAlways})
	payload := string(bytes.Repeat([]byte("x"), 128))
	for i := uint64(0); i < 100; i++ {
		s.Put(rec(KindResult, i, payload))
		s.Flush() // serialize appends so the compaction point is deterministic
	}
	s.Flush()
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	if st.SizeBytes > 3*4096 {
		t.Fatalf("disk did not shrink: %+v", st)
	}
	s.Close()

	s2 := openT(t, dir, Options{})
	got := collect(t, s2)
	seen := map[uint64]int{}
	for _, g := range got {
		seen[g.Key]++
		if g.Key%2 == 1 && g.Key < 90 {
			// Odd keys written well before the last compaction must have
			// been dropped as dead. (The most recent tail may postdate
			// the final compaction.)
			t.Fatalf("dead key %d survived compaction", g.Key)
		}
		if seen[g.Key] > 1 {
			t.Fatalf("key %d appears twice after compaction", g.Key)
		}
	}
	if len(got) == 0 {
		t.Fatal("compaction dropped everything")
	}
}

// TestCompactionMidKill simulates dying between writing the compacted
// temporary and the rename: the next Open must ignore and remove the
// .tmp and serve the old segments.
func TestCompactionMidKill(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: FsyncAlways})
	s.Put(rec(KindResult, 1, "keep-me"))
	s.Flush()
	s.Close()

	// A stray half-written compaction temporary.
	tmp := filepath.Join(dir, "seg-00000042.laoc.tmp")
	if err := os.WriteFile(tmp, []byte("half-written-garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	got := collect(t, s2)
	if len(got) != 1 || got[0].Key != 1 || string(got[0].Payload) != "keep-me" {
		t.Fatalf("old segments not served after mid-kill: %+v", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("compaction temporary not removed at Open")
	}
	// And the tmp must never be mistaken for a segment.
	if st := s2.Stats(); st.CorruptDropped != 0 {
		t.Fatalf("tmp leaked into the scan: %+v", st)
	}
}

// TestCompactionRenamedNotDeleted simulates dying after the rename but
// before the old-segment deletes: the scan sees duplicates and
// last-record-wins absorbs them.
func TestCompactionRenamedNotDeleted(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Fsync: FsyncAlways})
	s.Put(rec(KindResult, 7, "same-bytes"))
	s.Flush()
	s.Close()
	// Duplicate the segment under a higher number, as an interrupted
	// compaction would leave it.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000050.laoc"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Options{})
	keys := map[uint64]int{}
	recs := collect(t, s2)
	for _, g := range recs {
		keys[g.Key]++
	}
	if keys[7] != 2 {
		t.Fatalf("expected the duplicate to be scanned twice (last wins at the cache layer), got %+v", keys)
	}
	for _, g := range recs {
		if string(g.Payload) != "same-bytes" {
			t.Fatal("duplicate record differs — content-addressing violated")
		}
	}
}

// TestFsyncPolicies exercises all three policies end to end (the
// syscalls, not durability itself) and pins the drop-on-full-queue
// write-behind contract.
func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncNever, FsyncInterval, FsyncAlways} {
		dir := t.TempDir()
		s := openT(t, dir, Options{Fsync: p, FsyncEvery: 1})
		for i := uint64(0); i < 10; i++ {
			s.Put(rec(KindResult, i, "p"))
		}
		s.Flush()
		st := s.Stats()
		if st.Appends != 10 {
			t.Fatalf("policy %v: %d appends, want 10", p, st.Appends)
		}
		if p == FsyncAlways && st.Fsyncs < 10 {
			t.Fatalf("policy always: only %d fsyncs", st.Fsyncs)
		}
		s.Close()
	}

	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
	for s, want := range map[string]FsyncPolicy{"": FsyncNever, "never": FsyncNever, "interval": FsyncInterval, "always": FsyncAlways} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
}

// TestPutAfterClose must not panic or write.
func TestPutAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put(rec(KindResult, 1, "x"))
	s.Flush()
	s.Close()
	s.Put(rec(KindResult, 2, "y"))
	s.Flush() // must not deadlock
	if st := s.Stats(); st.Dropped == 0 {
		t.Fatal("post-close Put not counted as dropped")
	}
}

// TestCompactionStreamsLiveSet pins compaction's memory: rewriting a
// 33 MB store whose live set is 1/32 of it must allocate no more than
// twice the live bytes — frames stream through one window, and only
// the set of keys seen is kept — and must leave exactly the live
// records behind.
func TestCompactionStreamsLiveSet(t *testing.T) {
	dir := t.TempDir()
	const n = 4096
	payload := bytes.Repeat([]byte("p"), 8<<10)
	s := openT(t, dir, Options{MaxBytes: -1})
	for i := uint64(0); i < n; i++ {
		s.Put(&Record{Kind: KindResult, Key: i, Payload: payload})
		if i%512 == 511 {
			s.Flush() // stay well inside the write-behind queue
		}
	}
	s.Close()

	live := func(k Kind, key uint64) bool { return key%32 == 0 }
	s2 := openT(t, dir, Options{MaxBytes: 32 << 20, Live: live})
	size := s2.Stats().SizeBytes
	if size < 32<<20 {
		t.Fatalf("store holds %d bytes, want at least 32 MiB", size)
	}
	liveBytes := size / 32
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s2.Put(rec(KindResult, n+1, "over the cap")) // dead: dropped again
	s2.Flush()
	runtime.ReadMemStats(&m1)
	st := s2.Stats()
	if st.Compactions != 1 || st.CompactDropped != n-n/32+1 {
		t.Fatalf("compaction did not run as expected: %+v", st)
	}
	alloc := int64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("compaction allocated %d bytes; live set %d bytes", alloc, liveBytes)
	if alloc > 2*liveBytes {
		t.Fatalf("compaction allocated %d bytes for a %d-byte live set of a %d-byte store", alloc, liveBytes, size)
	}
	s2.Close()

	got := collect(t, openT(t, dir, Options{}))
	if len(got) != n/32 {
		t.Fatalf("%d records survived compaction, want %d", len(got), n/32)
	}
	for i, g := range got {
		if g.Key != uint64(32*i) || !bytes.Equal(g.Payload, payload) {
			t.Fatalf("record %d: key %d, %d payload bytes", i, g.Key, len(g.Payload))
		}
	}
}

// TestCompactionResyncsLikeScan damages an older segment four ways — a
// flipped payload bit, a torn frame, stray bytes between frames, and a
// well-checksummed record of unknown kind — and requires compaction to
// skip and count exactly what Scan skips and counts, keep every intact
// record, and leave a store that scans clean.
func TestCompactionResyncsLikeScan(t *testing.T) {
	frame := func(r *Record) []byte { return encodeRecord(nil, r) }
	flipped := frame(rec(KindResult, 2, "two"))
	flipped[len(flipped)-10] ^= 0x01 // payload byte: checksum fails
	var seg0 []byte
	seg0 = append(seg0, frame(rec(KindResult, 1, "one"))...)
	seg0 = append(seg0, flipped...)
	seg0 = append(seg0, frame(rec(KindDecode, 3, "three"))...)
	seg0 = append(seg0, frame(rec(KindResult, 4, "four"))[:30]...) // torn mid-header
	seg0 = append(seg0, frame(rec(KindResult, 5, "five"))...)
	seg0 = append(seg0, "stray bytes"...)
	seg0 = append(seg0, frame(&Record{Kind: 3, Key: 6, Payload: []byte("unknown kind")})...)
	seg0 = append(seg0, frame(rec(KindDecode, 7, "seven"))...)
	seg1 := frame(rec(KindResult, 8, "eight"))
	want := map[uint64]string{1: "one", 3: "three", 5: "five", 7: "seven", 8: "eight"}

	mkStore := func() string {
		dir := t.TempDir()
		for n, data := range [][]byte{seg0, seg1} {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(segPattern, n)), data, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	check := func(stage string, got []*Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", stage, len(got), len(want))
		}
		for _, g := range got {
			if w, ok := want[g.Key]; !ok || string(g.Payload) != w {
				t.Fatalf("%s: unexpected record %d %q", stage, g.Key, g.Payload)
			}
		}
	}

	scanned := openT(t, mkStore(), Options{})
	check("scan", collect(t, scanned))
	corrupt := scanned.Stats().CorruptDropped
	if corrupt != 4 {
		t.Fatalf("scan counted %d corrupt spans, want 4", corrupt)
	}

	dir := mkStore()
	s := openT(t, dir, Options{MaxBytes: 1}) // the next append compacts
	s.Put(rec(KindResult, 9, "nine"))
	s.Flush()
	if st := s.Stats(); st.Compactions != 1 || st.CorruptDropped != corrupt || st.CompactDropped != 0 {
		t.Fatalf("compaction counted differently from scan (%d corrupt): %+v", corrupt, st)
	}
	s.Close()
	after := openT(t, dir, Options{})
	want[9] = "nine"
	check("after compaction", collect(t, after))
	if st := after.Stats(); st.CorruptDropped != 0 {
		t.Fatalf("compacted store does not scan clean: %+v", st)
	}
}
