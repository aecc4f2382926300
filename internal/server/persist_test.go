package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"outofssa/internal/cachestore"
	"outofssa/internal/ir"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// runPersistServer starts a server whose shutdown the test controls —
// restart tests must drain (flushing the store) before reopening the
// same directory.
func runPersistServer(t *testing.T, conf Config) (*httptest.Server, *metrics.Registry, func()) {
	t.Helper()
	reg := metrics.New()
	conf.Metrics = reg
	s, err := New(conf)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}
	t.Cleanup(stop)
	return hs, reg, stop
}

// segFiles lists the store's segment files under dir.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "seg-*.laoc"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	return matches
}

// TestWarmStartServesIdentical is the restart contract: a killed and
// restarted daemon answers the same requests from its warmed caches —
// byte-identical output, every response a verified cache hit, zero
// recompilation, zero poisoned or corrupt records.
func TestWarmStartServesIdentical(t *testing.T) {
	dir := t.TempDir()
	funcs := workload.SynthFuncs(24, 99)
	docs := make([][]byte, len(funcs))
	for i, f := range funcs {
		doc, err := ir.MarshalV1(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = doc
	}

	hs1, _, stop1 := runPersistServer(t, Config{CacheDir: dir})
	cold := make([]string, len(funcs))
	for i, doc := range docs {
		rep := postCompile(t, hs1.URL, compileRequest{IR: doc})
		if rep.status != http.StatusOK {
			t.Fatalf("cold %d: status %d (%s)", i, rep.status, rep.errK)
		}
		cold[i] = rep.resp.Output
	}
	stop1()

	hs2, reg2, _ := runPersistServer(t, Config{CacheDir: dir})
	if warm := counterValue(reg2, MetricStoreWarm); warm != int64(len(funcs)) {
		t.Fatalf("warm-loaded %d records, want %d (one result per function)", warm, len(funcs))
	}
	if skipped := counterValue(reg2, MetricStoreWarmSkipped); skipped != 0 {
		t.Fatalf("warm start skipped %d records, want 0", skipped)
	}
	for i, doc := range docs {
		rep := postCompile(t, hs2.URL, compileRequest{IR: doc})
		if rep.status != http.StatusOK {
			t.Fatalf("warm %d: status %d (%s)", i, rep.status, rep.errK)
		}
		if !rep.resp.Cached {
			t.Fatalf("warm %d: response not served from cache after restart", i)
		}
		if rep.resp.Output != cold[i] {
			t.Fatalf("warm %d: output differs from pre-restart response", i)
		}
	}
	if miss := counterValue(reg2, MetricCacheMisses); miss != 0 {
		t.Fatalf("%d result-cache misses after warm start, want 0", miss)
	}
	if miss := counterValue(reg2, MetricDecodeMisses); miss != 0 {
		t.Fatalf("%d decodes after warm start, want 0", miss)
	}
	if poison := counterValue(reg2, MetricCachePoison); poison != 0 {
		t.Fatalf("%d poisoned entries after warm start, want 0", poison)
	}
	if corrupt := counterValue(reg2, MetricStoreCorrupt); corrupt != 0 {
		t.Fatalf("store reported %d corrupt records on a clean restart, want 0", corrupt)
	}
}

// TestWarmStartSkipsCorruptRecord flips a byte inside a stored record:
// the store's frame checksum catches it, the record is counted and
// skipped, and a re-request recompiles to the correct bytes — corrupt
// state on disk costs a recompilation, never a wrong answer.
func TestWarmStartSkipsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	f := testprog.Rand(7, testprog.DefaultRandOptions())
	doc, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}

	hs1, _, stop1 := runPersistServer(t, Config{CacheDir: dir})
	rep := postCompile(t, hs1.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", rep.status, rep.errK)
	}
	want := rep.resp.Output
	stop1()

	// Flip one byte near the end of the newest non-empty segment — that
	// lands in the result record's payload or checksum.
	var target string
	for _, p := range segFiles(t, dir) {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			target = p
		}
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-12] ^= 0x55
	if err := os.WriteFile(target, data, 0o666); err != nil {
		t.Fatal(err)
	}

	hs2, reg2, _ := runPersistServer(t, Config{CacheDir: dir})
	if corrupt := counterValue(reg2, MetricStoreCorrupt); corrupt < 1 {
		t.Fatalf("store counted %d corrupt records, want >= 1", corrupt)
	}
	rep = postCompile(t, hs2.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK {
		t.Fatalf("after corruption: status %d (%s)", rep.status, rep.errK)
	}
	if rep.resp.Output != want {
		t.Fatal("post-corruption response differs from the original compile")
	}
	if poison := counterValue(reg2, MetricCachePoison); poison != 0 {
		t.Fatalf("%d poisoned serves detected, want 0 — corrupt records must never reach the cache", poison)
	}
}

// TestWarmStartSkipsOlderDecodeRecords opens a store written by a
// laocd that also persisted its decoded functions: one valid b1 decode
// record and one garbage one. The warm scan decodes and serves neither
// — both count as skipped, not corrupt — and the next compaction drops
// both, leaving result records only.
func TestWarmStartSkipsOlderDecodeRecords(t *testing.T) {
	dir := t.TempDir()
	f := testprog.Rand(5, testprog.DefaultRandOptions())
	doc, err := ir.MarshalBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := localOutput(t, f, pipeline.ExpLphiABIC)
	st, err := cachestore.Open(dir, cachestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(&cachestore.Record{Kind: cachestore.KindDecode, Key: contentKey("ir", doc, pipeline.ExpLphiABIC), Payload: doc})
	st.Put(&cachestore.Record{Kind: cachestore.KindDecode, Key: 0xDEAD, Payload: []byte("not an ir document")})
	st.Flush()
	size := st.Stats().SizeBytes
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A cap just above the old records: the first result append
	// compacts the store.
	decoded := ir.Stats().UnmarshalsB1
	hs, reg, stop := runPersistServer(t, Config{CacheDir: dir, StoreMaxBytes: size + 1})
	if got := ir.Stats().UnmarshalsB1 - decoded; got != 0 {
		t.Fatalf("warm start decoded %d b1 documents, want 0", got)
	}
	if skipped := counterValue(reg, MetricStoreWarmSkipped); skipped != 2 {
		t.Fatalf("warm start skipped %d records, want 2 (both decode records)", skipped)
	}
	if warm := counterValue(reg, MetricStoreWarm); warm != 0 {
		t.Fatalf("warm-loaded %d records, want 0", warm)
	}
	if corrupt := counterValue(reg, MetricStoreCorrupt); corrupt != 0 {
		t.Fatalf("store counted %d corrupt records, want 0: decode records are a known kind", corrupt)
	}

	// The function behind the valid decode record compiles afresh.
	rep := postRawCompile(t, hs.URL, doc)
	if rep.status != http.StatusOK || rep.resp.Cached || rep.resp.Output != want {
		t.Fatalf("after warm start: status=%d cached=%v, want a fresh compile matching the local pipeline", rep.status, rep.resp.Cached)
	}
	if got := counterValue(reg, MetricDecodeMisses); got != 1 {
		t.Fatalf("%d decodes, want 1", got)
	}
	if poison := counterValue(reg, MetricCachePoison); poison != 0 {
		t.Fatalf("%d poisoned serves, want 0", poison)
	}
	stop()
	if got := counterValue(reg, MetricStoreCompactions); got != 1 {
		t.Fatalf("%d compactions, want 1", got)
	}
	if got := counterValue(reg, MetricStoreCompactDropped); got != 2 {
		t.Fatalf("compaction dropped %d records, want 2 (both decode records)", got)
	}
	st, err = cachestore.Open(dir, cachestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var kinds []cachestore.Kind
	if err := st.Scan(func(rec *cachestore.Record) bool {
		kinds = append(kinds, rec.Kind)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 1 || kinds[0] != cachestore.KindResult {
		t.Fatalf("compacted store holds kinds %v, want one result record", kinds)
	}
}

// TestWarmStartTornTail simulates a crash mid-append: garbage bytes on
// the newest segment's tail are truncated at recovery and the intact
// records still warm the caches.
func TestWarmStartTornTail(t *testing.T) {
	dir := t.TempDir()
	f := testprog.Rand(11, testprog.DefaultRandOptions())
	doc, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}

	hs1, _, stop1 := runPersistServer(t, Config{CacheDir: dir})
	rep := postCompile(t, hs1.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK {
		t.Fatalf("cold: status %d (%s)", rep.status, rep.errK)
	}
	want := rep.resp.Output
	stop1()

	var target string
	for _, p := range segFiles(t, dir) {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			target = p
		}
	}
	fh, err := os.OpenFile(target, os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write(bytes.Repeat([]byte{0xAB}, 100))
	fh.Close()

	hs2, reg2, _ := runPersistServer(t, Config{CacheDir: dir})
	if trunc := counterValue(reg2, MetricStoreTruncated); trunc != 100 {
		t.Fatalf("recovery truncated %d bytes, want 100", trunc)
	}
	rep = postCompile(t, hs2.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK || !rep.resp.Cached {
		t.Fatalf("after torn-tail recovery: status %d cached=%v, want a warm hit", rep.status, rep.resp.Cached)
	}
	if rep.resp.Output != want {
		t.Fatal("post-recovery response differs from the original compile")
	}
}

// TestB1Negotiation pins the schema surface: the same function posted
// as a raw binary body and as a v1 JSON document must compile to
// identical output. The two are distinct content, so each decodes once.
func TestB1Negotiation(t *testing.T) {
	_, hs, reg := startServer(t, Config{})
	f := testprog.Rand(3, testprog.DefaultRandOptions())
	b1, err := ir.MarshalBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}

	raw := postRawCompile(t, hs.URL, b1)
	if raw.status != http.StatusOK {
		t.Fatalf("raw b1 body: status %d (%s)", raw.status, raw.errK)
	}
	if raw.resp.Cached {
		t.Fatal("first b1 request reported cached")
	}
	rep := postCompile(t, hs.URL, compileRequest{IR: v1})
	if rep.status != http.StatusOK {
		t.Fatalf("v1: status %d (%s)", rep.status, rep.errK)
	}
	if rep.resp.Output != raw.resp.Output {
		t.Fatal("v1 and b1 outputs differ")
	}

	if miss := counterValue(reg, MetricDecodeMisses); miss != 2 {
		t.Fatalf("decode misses = %d, want 2 (one per distinct content: b1 bytes, v1 bytes)", miss)
	}

	// A truncated binary body must be a 400, not a hang or a 500.
	if rep := postRawCompile(t, hs.URL, b1[:len(b1)-3]); rep.status != http.StatusBadRequest {
		t.Fatalf("truncated b1 body: status %d, want 400", rep.status)
	}

	// So must a name that is not valid UTF-8: no JSON response could
	// echo the bytes that were compiled.
	bad := append([]byte{}, b1...)
	bad[bytes.Index(bad, []byte(f.Name))] = 0xFF
	if rep := postRawCompile(t, hs.URL, bad); rep.status != http.StatusBadRequest {
		t.Fatalf("b1 body with invalid UTF-8 name: status %d, want 400", rep.status)
	}
}

// TestMixedSchemaDrive runs the workload generator's schema
// alternation (v1 JSON at even indexes, raw b1 at odd ones) against one
// server: everything compiles, and every response for the same source
// function is byte-identical regardless of wire schema. The pool is odd,
// so every function travels in both schemas.
func TestMixedSchemaDrive(t *testing.T) {
	s, _, _ := startServer(t, Config{Workers: 4, QueueDepth: 256})
	const n, distinct = 64, 7
	funcs := workload.SynthPool(n, distinct, 321)
	reqs, err := workload.MixedRequests(funcs, 10_000, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]int, n)
	outputs := make([]string, n)
	rep := workload.Drive("http://laocd.mixed", reqs, workload.DriveOptions{
		Concurrency: 4,
		Client:      &http.Client{Transport: handlerTransport{h: s.Handler()}},
	}, outcomes, outputs)
	if rep.OK != n {
		t.Fatalf("mixed drive: %d/%d OK (report %s)", rep.OK, n, rep.String())
	}
	want := make(map[*ir.Func]string, distinct)
	for i, f := range funcs {
		if outcomes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, outcomes[i])
		}
		if prev, ok := want[f]; !ok {
			want[f] = outputs[i]
		} else if outputs[i] != prev {
			t.Fatalf("request %d: output differs across wire schemas for the same function", i)
		}
	}
}
