package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"outofssa/internal/faultinject"
	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

const srcSimple = `
.func simple
.input A:R0, B:R1
entry:
    add     C, A, B
    mul     D, C, C
    ret     D
.endfunc
`

// startServer builds, starts and exposes a server over httptest; the
// cleanup drains it and fails the test if drain misbehaves.
func startServer(t *testing.T, conf Config) (*Server, *httptest.Server, *metrics.Registry) {
	t.Helper()
	if conf.Metrics == nil {
		conf.Metrics = metrics.New()
	}
	s, err := New(conf)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, hs, conf.Metrics
}

type compileReply struct {
	status int
	resp   compileResponse
	errK   string
	errMsg string
}

func postCompile(t *testing.T, url string, body any) compileReply {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/compile", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var rep compileReply
	rep.status = hr.StatusCode
	if hr.StatusCode == http.StatusOK {
		if err := json.NewDecoder(hr.Body).Decode(&rep.resp); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	var env struct {
		Error *httpError `json:"error"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	rep.errK, rep.errMsg = env.Error.Kind, env.Error.Message
	return rep
}

// counterValue sums a counter family across labels.
func counterValue(reg *metrics.Registry, name string) int64 {
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// localOutput runs the server's exact configuration locally.
func localOutput(t *testing.T, f *ir.Func, exp string) (string, *pipeline.Result) {
	t.Helper()
	conf, err := pipeline.Preset(exp)
	if err != nil {
		t.Fatal(err)
	}
	conf.Verify, conf.Fallback = true, true
	res, err := pipeline.Run(f, conf)
	if err != nil {
		t.Fatal(err)
	}
	return f.String(), res
}

func TestCompileLAI(t *testing.T) {
	_, hs, reg := startServer(t, Config{})
	rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if rep.status != http.StatusOK {
		t.Fatalf("status %d (%s)", rep.status, rep.errK)
	}
	f, err := lai.Parse(srcSimple)
	if err != nil {
		t.Fatal(err)
	}
	want, res := localOutput(t, f, pipeline.ExpLphiABIC)
	if rep.resp.Output != want {
		t.Fatalf("server output differs from local pipeline:\n--- server ---\n%s--- local ---\n%s",
			rep.resp.Output, want)
	}
	if rep.resp.Moves != res.Moves || rep.resp.Instrs != res.Instrs {
		t.Fatalf("counters differ: %d/%d vs %d/%d", rep.resp.Moves, rep.resp.Instrs, res.Moves, res.Instrs)
	}
	if rep.resp.Cached || rep.resp.FellBack || rep.resp.Degraded {
		t.Fatalf("unexpected flags in %+v", rep.resp)
	}
	if got := counterValue(reg, MetricRequests); got != 1 {
		t.Fatalf("requests_total = %d, want 1", got)
	}
}

func TestCompileIR(t *testing.T) {
	_, hs, _ := startServer(t, Config{})
	f := testprog.Rand(11, testprog.DefaultRandOptions())
	doc, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}
	rep := postCompile(t, hs.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK {
		t.Fatalf("status %d (%s)", rep.status, rep.errK)
	}
	want, _ := localOutput(t, testprog.Rand(11, testprog.DefaultRandOptions()), pipeline.ExpLphiABIC)
	if rep.resp.Output != want {
		t.Fatal("IR-mode server output differs from local pipeline")
	}
}

func TestCompileRejects(t *testing.T) {
	_, hs, _ := startServer(t, Config{})
	// The "ir" field takes a v1 document only: the retired arena JSON
	// schema and a base64'd b1 string are both malformed.
	b1, err := ir.MarshalBinary(testprog.Rand(11, testprog.DefaultRandOptions()))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body any
		kind string
	}{
		{"empty", compileRequest{}, "parse"},
		{"both", compileRequest{LAI: srcSimple, IR: json.RawMessage(`{}`)}, "parse"},
		{"bad-lai", compileRequest{LAI: ".func broken\n"}, "parse"},
		{"bad-ir", compileRequest{IR: json.RawMessage(`{"schema":"nope"}`)}, "parse"},
		{"v2-ir", compileRequest{IR: json.RawMessage(`{"schema":"laoc-ir-v2","name":"f","nphys":25,"vnames":["A","B"],"ops":[25,1,26,0,25,0,25,0,26,0],"code":[0,1,2],"instrs":[34,0,0,1,1,0,1,8,0,1,1,2,2,0,35,0,4,0,4,1,0],"blocks":[{"name":"entry","co":0,"cl":3}],"order":[0]}`)}, "parse"},
		{"base64-ir", compileRequest{IR: json.RawMessage(`"` + base64.StdEncoding.EncodeToString(b1) + `"`)}, "parse"},
		{"debug-disabled", compileRequest{LAI: srcSimple, Debug: &debugRequest{SleepMS: 1}}, "parse"},
	}
	for _, tc := range cases {
		rep := postCompile(t, hs.URL, tc.body)
		if rep.status != http.StatusBadRequest || rep.errK != tc.kind {
			t.Fatalf("%s: status=%d kind=%q, want 400/%s", tc.name, rep.status, rep.errK, tc.kind)
		}
	}
	// Malformed JSON body and wrong method, below the typed layer.
	hr, err := http.Post(hs.URL+"/compile", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON: status %d", hr.StatusCode)
	}
	hg, err := http.Get(hs.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	hg.Body.Close()
	if hg.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", hg.StatusCode)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	_, hs, reg := startServer(t, Config{AllowDebug: true})
	rep := postCompile(t, hs.URL, compileRequest{
		LAI:        srcSimple,
		DeadlineMS: 30,
		Debug:      &debugRequest{SleepMS: 120},
	})
	if rep.status != http.StatusGatewayTimeout || rep.errK != "deadline" {
		t.Fatalf("status=%d kind=%q, want 504/deadline", rep.status, rep.errK)
	}
	if got := counterValue(reg, MetricDeadline); got == 0 {
		t.Fatal("deadline counter not incremented")
	}
}

func TestShedUnderOverload(t *testing.T) {
	_, hs, reg := startServer(t, Config{Workers: 1, QueueDepth: 1, AllowDebug: true})
	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := postCompile(t, hs.URL, compileRequest{
				LAI:        srcSimple,
				DeadlineMS: 2000,
				Debug:      &debugRequest{SleepMS: 80},
			})
			codes[i] = rep.status
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("want both served and shed requests, got ok=%d shed=%d", ok, shed)
	}
	if got := counterValue(reg, MetricShed); got != int64(shed) {
		t.Fatalf("shed counter %d != %d observed 429s", got, shed)
	}
}

func TestSingleflightAndCache(t *testing.T) {
	_, hs, reg := startServer(t, Config{Workers: 2})
	const n = 8
	var wg sync.WaitGroup
	outs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
			if rep.status != http.StatusOK {
				t.Errorf("status %d", rep.status)
				return
			}
			outs[i] = rep.resp.Output
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatal("singleflight followers must see the leader's output")
		}
	}
	// All n raced one singleflight slot: compiles = misses ≤ n, and at
	// least one request piggybacked if any overlapped. The hard
	// invariant is the counter bookkeeping, not the schedule.
	misses := counterValue(reg, MetricCacheMisses)
	if misses == 0 || misses > n {
		t.Fatalf("cache misses = %d", misses)
	}
	// A later identical request is a checksum-verified cache hit.
	rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if !rep.resp.Cached || rep.resp.Output != outs[0] {
		t.Fatalf("want cached identical reply, got cached=%v", rep.resp.Cached)
	}
	if counterValue(reg, MetricCacheHits) == 0 {
		t.Fatal("cache hit not counted")
	}
}

// TestCachePoisonNeverServed drives the poison class end to end
// through the server: corrupt the cached translation after insert,
// and the next request must detect it, recompile, and serve the
// correct output — the poisoned bytes must never appear in a reply.
func TestCachePoisonNeverServed(t *testing.T) {
	s, hs, reg := startServer(t, Config{})
	first := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if first.status != http.StatusOK {
		t.Fatalf("status %d", first.status)
	}
	if !s.cache.tamper(faultinject.InjectCachePoison) {
		t.Fatal("no cache entry to poison")
	}
	second := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if second.status != http.StatusOK {
		t.Fatalf("status %d", second.status)
	}
	if second.resp.Cached {
		t.Fatal("poisoned entry must not be served as a cache hit")
	}
	if second.resp.Output != first.resp.Output {
		t.Fatal("recompiled output must match the original translation")
	}
	if got := counterValue(reg, MetricCachePoison); got != 1 {
		t.Fatalf("poison counter = %d, want 1", got)
	}
	// And the recompiled entry serves clean afterwards.
	third := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if !third.resp.Cached || third.resp.Output != first.resp.Output {
		t.Fatal("recompiled entry must serve as a verified hit")
	}
}

func TestBreakerDegradesAndRecovers(t *testing.T) {
	_, hs, reg := startServer(t, Config{
		AllowDebug:       true,
		BreakerThreshold: 2,
		BreakerWindow:    time.Minute,
		BreakerCooldown:  50 * time.Millisecond,
	})
	// Two injected pass panics of the same class trip the breaker; the
	// fallback still answers both requests.
	for i := 0; i < 2; i++ {
		rep := postCompile(t, hs.URL, compileRequest{
			LAI:   srcSimple,
			Debug: &debugRequest{PanicPass: "pinning-sp"},
		})
		if rep.status != http.StatusOK || !rep.resp.FellBack {
			t.Fatalf("faulted request %d: status=%d fellBack=%v", i, rep.status, rep.resp.FellBack)
		}
	}
	if got := counterValue(reg, MetricBreakerTrips); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}
	// /readyz names the open class.
	hr, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !strings.Contains(string(body), "pinning-sp") {
		t.Fatalf("/readyz must report the open class, got %s", body)
	}
	// While open (pre-cooldown), a clean request compiles degraded.
	f := testprog.Rand(21, testprog.DefaultRandOptions())
	doc, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}
	rep := postCompile(t, hs.URL, compileRequest{IR: doc})
	if rep.status != http.StatusOK || !rep.resp.Degraded {
		t.Fatalf("want degraded compile while breaker open, got %+v", rep.resp)
	}
	// After the cooldown a clean probe closes the class again.
	time.Sleep(70 * time.Millisecond)
	probe := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if probe.status != http.StatusOK || probe.resp.Degraded {
		t.Fatalf("probe after cooldown: %+v", probe.resp)
	}
	f2 := testprog.Rand(22, testprog.DefaultRandOptions())
	doc2, err := ir.MarshalV1(f2)
	if err != nil {
		t.Fatal(err)
	}
	after := postCompile(t, hs.URL, compileRequest{IR: doc2})
	if after.resp.Degraded {
		t.Fatal("breaker must have closed after a successful probe")
	}
	if counterValue(reg, MetricBreakerProbes) == 0 {
		t.Fatal("probe not counted")
	}
}

// TestBreakerProbeNeverServedFromCache is the regression test for a
// half-open probe answered from the result cache: a probe that never
// compiles never reports, the class stays "probing", and every later
// request degrades for good. Here the first request after the cooldown
// carries content cached under the full key; it must compile as the
// probe and close the class.
func TestBreakerProbeNeverServedFromCache(t *testing.T) {
	clk := newFakeClock()
	_, hs, reg := startServer(t, Config{
		AllowDebug:       true,
		BreakerThreshold: 1,
		BreakerWindow:    time.Minute,
		BreakerCooldown:  5 * time.Second,
		now:              clk.now,
	})
	if rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple}); rep.status != http.StatusOK || rep.resp.Degraded {
		t.Fatalf("first compile: status=%d %+v", rep.status, rep.resp)
	}
	trip := postCompile(t, hs.URL, compileRequest{LAI: srcSimple, Debug: &debugRequest{PanicPass: "pinning-sp"}})
	if trip.status != http.StatusOK || !trip.resp.FellBack {
		t.Fatalf("faulted request: status=%d fellBack=%v", trip.status, trip.resp.FellBack)
	}
	if got := counterValue(reg, MetricBreakerTrips); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}

	clk.advance(6 * time.Second)
	probe := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if probe.status != http.StatusOK || probe.resp.Degraded {
		t.Fatalf("probe after cooldown: status=%d degraded=%v, want the full pipeline", probe.status, probe.resp.Degraded)
	}
	for i, seed := range []int64{31, 32} {
		clk.advance(time.Minute)
		doc, err := ir.MarshalV1(testprog.Rand(seed, testprog.DefaultRandOptions()))
		if err != nil {
			t.Fatal(err)
		}
		rep := postCompile(t, hs.URL, compileRequest{IR: doc})
		if rep.status != http.StatusOK || rep.resp.Degraded {
			t.Fatalf("request %d after the probe: status=%d degraded=%v, want the breaker closed", i, rep.status, rep.resp.Degraded)
		}
	}
	if got := counterValue(reg, MetricBreakerProbes); got != 1 {
		t.Fatalf("breaker probes = %d, want 1", got)
	}
}

// srcBadPins pins both uses of one instruction to R1, which the
// paper's Fig. 4 rules out (case 2): the input is illegal, whatever
// the passes do.
const srcBadPins = `
.func badpins%d
.input A:R0, B:R2
entry:
    add     X^R1, A^R1, B^R1
    ret     X
.endfunc
`

// TestInvalidInputNeverTripsBreaker is the regression test for client
// input tripping the breaker for every client: requests whose input
// fails the entry check are the client's fault. They get a 400
// "invalid", feed no breaker class, and the valid requests after them
// compile with the full pipeline. An invalid request that wins a
// half-open probe gives it back without a verdict.
func TestInvalidInputNeverTripsBreaker(t *testing.T) {
	clk := newFakeClock()
	_, hs, reg := startServer(t, Config{
		AllowDebug:       true,
		BreakerThreshold: 5,
		BreakerWindow:    time.Minute,
		BreakerCooldown:  5 * time.Second,
		now:              clk.now,
	})
	for i := 0; i < 6; i++ {
		rep := postCompile(t, hs.URL, compileRequest{LAI: fmt.Sprintf(srcBadPins, i)})
		if rep.status != http.StatusBadRequest || rep.errK != "invalid" {
			t.Fatalf("invalid request %d: status=%d kind=%q, want 400/invalid", i, rep.status, rep.errK)
		}
	}
	for i, seed := range []int64{41, 42, 43, 44} {
		doc, err := ir.MarshalV1(testprog.Rand(seed, testprog.DefaultRandOptions()))
		if err != nil {
			t.Fatal(err)
		}
		rep := postCompile(t, hs.URL, compileRequest{IR: doc})
		if rep.status != http.StatusOK || rep.resp.Degraded {
			t.Fatalf("valid request %d after the invalid ones: status=%d degraded=%v, want the full pipeline", i, rep.status, rep.resp.Degraded)
		}
	}
	if got := counterValue(reg, MetricBreakerTrips); got != 0 {
		t.Fatalf("breaker trips = %d, want 0", got)
	}
	if got := reg.Counter(MetricRequests, metrics.L("kind", "invalid")).Value(); got != 6 {
		t.Fatalf("invalid requests = %d, want 6", got)
	}

	// Trip a class with injected pass panics, let it cool down, and send
	// an invalid request first: it takes the probe and must give it back,
	// so the next valid request probes and closes the class.
	for i := 0; i < 5; i++ {
		rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple, Debug: &debugRequest{PanicPass: "pinning-sp"}})
		if rep.status != http.StatusOK || !rep.resp.FellBack {
			t.Fatalf("faulted request %d: status=%d fellBack=%v", i, rep.status, rep.resp.FellBack)
		}
	}
	if got := counterValue(reg, MetricBreakerTrips); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}
	clk.advance(6 * time.Second)
	if rep := postCompile(t, hs.URL, compileRequest{LAI: fmt.Sprintf(srcBadPins, 6)}); rep.status != http.StatusBadRequest || rep.errK != "invalid" {
		t.Fatalf("invalid probe: status=%d kind=%q, want 400/invalid", rep.status, rep.errK)
	}
	if got := counterValue(reg, MetricBreakerProbes); got != 0 {
		t.Fatalf("breaker probes = %d after the invalid request, want 0", got)
	}
	doc, err := ir.MarshalV1(testprog.Rand(45, testprog.DefaultRandOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if rep := postCompile(t, hs.URL, compileRequest{IR: doc}); rep.status != http.StatusOK || rep.resp.Degraded {
		t.Fatalf("probe after the invalid request: status=%d degraded=%v, want the full pipeline", rep.status, rep.resp.Degraded)
	}
	if got := reg.Counter(MetricBreakerProbes, metrics.L("result", "ok")).Value(); got != 1 {
		t.Fatalf("successful probes = %d, want 1", got)
	}
}

// The three input shapes FuzzCompileHandler found, each legal to every
// check the boundary ran before them.
const (
	// srcABIClash: the ABI puts parameter A in R0, which B declares.
	srcABIClash = ".func abiclash\n.input A, B:R0\nentry:\n    add C, A, B\n    ret C\n.endfunc\n"
	// srcSPClash: SSA construction gives the undefined R0 an entry
	// definition, which pinning-sp pins to R0 beside A.
	srcSPClash = ".func spclash\n.input A:R0\nentry:\n    mov X, R0\n    add C, A, X\n    ret C\n.endfunc\n"
	// srcAlias is the function aliasedB1 breaks.
	srcAlias = ".func alias\n.input A:R0, B:R1\nentry:\n    add C, A, B\n    add D, C, A\n    ret D\n.endfunc\n"
	// srcEntryLoop branches back to its entry block, which was served
	// as code that never terminates (b's implicit definition on .input
	// ran on every iteration).
	srcEntryLoop = ".func entryloop\n.input five:R0\nentry:\n    const  one, 1\n    add    b, b, one\n    blt    b, five, entry\n    ret    b\n"
)

// aliasedB1 is the b1 encoding of srcAlias with instruction 2's def
// span (operand slot 5) moved onto instruction 1's (slot 2), so both
// instructions define through one slot. SSA renaming used to rewrite
// that slot twice and panic the worker.
func aliasedB1(t testing.TB) []byte {
	f, err := lai.Parse(srcAlias)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ir.MarshalBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	// An instruction record is 7 little-endian int64s: op, block,
	// defOff, defLen, useOff, useLen, imm.
	record := func(defOff int64) []byte {
		var b []byte
		for _, v := range []int64{int64(ir.Add), 0, defOff, 1, 6, 2, 0} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	i := bytes.Index(doc, record(5))
	if i < 0 {
		t.Fatal("instruction 2's record not found in the b1 document")
	}
	copy(doc[i:], record(2))
	return doc
}

// TestIllegalInputRejectedAtBoundary: each shape gets a 400, never a
// 200 that fell back, a worker panic or a breaker failure. The aliased
// b1 body, an .input that declares more parameters than it defines and
// an entry block with a predecessor fail decoding ("parse"); pins that
// clash with the ABI or SP pins fail as invalid input, sent often
// enough to trip the breaker if they fed it.
func TestIllegalInputRejectedAtBoundary(t *testing.T) {
	_, hs, reg := startServer(t, Config{BreakerThreshold: 5})
	if rep := postRawCompile(t, hs.URL, aliasedB1(t)); rep.status != http.StatusBadRequest || rep.errK != "parse" {
		t.Fatalf("aliased b1 body: status=%d kind=%q, want 400/parse", rep.status, rep.errK)
	}
	f, err := lai.Parse(srcSimple)
	if err != nil {
		t.Fatal(err)
	}
	f.Entry().Instr(0).Imm = 4
	doc, err := ir.MarshalV1(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep := postCompile(t, hs.URL, compileRequest{IR: doc}); rep.status != http.StatusBadRequest || rep.errK != "parse" {
		t.Fatalf(".input declaring 4 of 2 defs: status=%d kind=%q, want 400/parse", rep.status, rep.errK)
	}
	const entryLoopMsg = "lai: entryloop: entry block entry has predecessors"
	if rep := postCompile(t, hs.URL, compileRequest{LAI: srcEntryLoop}); rep.status != http.StatusBadRequest || rep.errK != "parse" || rep.errMsg != entryLoopMsg {
		t.Fatalf("entry loop: status=%d kind=%q message=%q, want 400/parse %q", rep.status, rep.errK, rep.errMsg, entryLoopMsg)
	}
	for i := 0; i < 5; i++ {
		for _, src := range []string{srcABIClash, srcSPClash} {
			if rep := postCompile(t, hs.URL, compileRequest{LAI: src}); rep.status != http.StatusBadRequest || rep.errK != "invalid" {
				t.Fatalf("pin clash %d: status=%d kind=%q, want 400/invalid", i, rep.status, rep.errK)
			}
		}
	}
	for _, name := range []string{MetricWorkerPanics, MetricBreakerTrips, pipeline.MetricFallbacks} {
		if got := counterValue(reg, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// TestCacheHitSkipsQueue pins hits-first: with the only worker busy and
// the only queue slot taken, a request for cached content is answered
// from the handler — no decode, no snapshot, no shed.
func TestCacheHitSkipsQueue(t *testing.T) {
	s, hs, reg := startServer(t, Config{Workers: 1, QueueDepth: 1, AllowDebug: true, MaxDeadline: time.Minute})
	if rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple}); rep.status != http.StatusOK {
		t.Fatalf("first compile: status %d (%s)", rep.status, rep.errK)
	}
	// Two slow debug requests, sent one after the other: the first holds
	// the worker, the second the queue slot. Each pass of the first
	// sleeps 1.5 s, and its deadline is 30 s, so it holds the worker well
	// past both 5 s polls; both clients are cancelled after the check.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	slow := func() {
		buf, err := json.Marshal(compileRequest{LAI: srcSimple, DeadlineMS: 30000,
			Debug: &debugRequest{SleepMS: 1500}})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/compile", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if hr, err := http.DefaultClient.Do(req); err == nil {
				hr.Body.Close()
			}
		}()
	}
	waitFor := func(what string, cond func() bool) {
		for wait := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(wait) {
				t.Fatal(what)
			}
		}
	}
	slow()
	waitFor("the first slow request never took the worker", func() bool { return s.inflight.Value() == 1 })
	slow()
	waitFor("the second slow request never took the queue slot", func() bool { return len(s.queue) == 1 })
	// Let the running request take its entry snapshots and reach its
	// first sleep.
	time.Sleep(50 * time.Millisecond)

	snaps, decodes := ir.Stats().Snapshots, counterValue(reg, MetricDecodeMisses)
	rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if rep.status != http.StatusOK || !rep.resp.Cached {
		t.Fatalf("cached content behind a full queue: status=%d (%s) cached=%v, want 200 cached",
			rep.status, rep.errK, rep.resp.Cached)
	}
	if got := ir.Stats().Snapshots - snaps; got != 0 {
		t.Fatalf("the hit took %d IR snapshots, want 0", got)
	}
	if got := counterValue(reg, MetricDecodeMisses) - decodes; got != 0 {
		t.Fatalf("the hit decoded %d times, want 0", got)
	}
}

// TestCancelledDebugSleepFreesWorker: a debug sleep ends with its
// request. Once the client of a request that sleeps 1.5 s after every
// pass goes away, its worker is free within 300 ms, not at the end of
// the sleep.
func TestCancelledDebugSleepFreesWorker(t *testing.T) {
	s, hs, _ := startServer(t, Config{Workers: 1, AllowDebug: true, MaxDeadline: time.Minute})
	buf, err := json.Marshal(compileRequest{LAI: srcSimple, DeadlineMS: 30000,
		Debug: &debugRequest{SleepMS: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/compile", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if hr, err := http.DefaultClient.Do(req); err == nil {
			hr.Body.Close()
		}
	}()
	defer func() { <-done }()
	for wait := time.Now().Add(5 * time.Second); s.inflight.Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(wait) {
			t.Fatal("the debug request never took the worker")
		}
	}
	// Let it reach its first sleep, then hang up.
	time.Sleep(50 * time.Millisecond)
	cancel()
	start := time.Now()
	for s.inflight.Value() != 0 {
		if d := time.Since(start); d > 300*time.Millisecond {
			t.Fatalf("the worker was still busy %v after the client went away", d)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	conf := Config{Metrics: metrics.New()}
	s, err := New(conf)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	ok := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if ok.status != http.StatusOK {
		t.Fatalf("status %d", ok.status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	if rep.status != http.StatusServiceUnavailable || rep.errK != "draining" {
		t.Fatalf("post-drain: status=%d kind=%q, want 503/draining", rep.status, rep.errK)
	}
	hr, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d", hr.StatusCode)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, hs, _ := startServer(t, Config{})
	postCompile(t, hs.URL, compileRequest{LAI: srcSimple})
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/metrics.json"} {
		hr, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, hr.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "laocd_requests_total") {
			t.Fatalf("/metrics must expose laocd_* families, got:\n%s", body)
		}
	}
}

func TestExecBudget(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1 << 14},
		{time.Millisecond, 50_000},
		{time.Minute, 1 << 20},
	}
	for _, tc := range cases {
		if got := execBudget(tc.d); got != tc.want {
			t.Fatalf("execBudget(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
