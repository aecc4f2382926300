package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/workload"
)

// TestChaos is the ISSUE's overload acceptance run: drive the service
// well past queue capacity with 1% injected pass-panics and assert
//
//   - zero process crashes (no transport-level failures, no 5xx other
//     than the typed 503/504 kinds);
//   - correct responses for every non-faulted request that was served:
//     the payload matches a local run of either the full pipeline or
//     the naive-only degraded mode, byte for byte;
//   - excess load is shed with 429s and the shed counter is accurate;
//   - the circuit breaker trips on the injected class and recovers;
//   - the drain is clean: every accepted request answered, then 503s.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	reg := metrics.New()
	s, err := New(Config{
		Workers:          4,
		QueueDepth:       8,
		DefaultDeadline:  5 * time.Second,
		AllowDebug:       true,
		BreakerThreshold: 2,
		BreakerWindow:    time.Minute,
		BreakerCooldown:  time.Second,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// --- Phase A: sustained overload, 1% injected pass panics. -----
	const n = 300
	funcs := workload.SynthFuncs(n, 7000)
	reqs, err := workload.MixedRequests(funcs, 4000, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A per-pass debug sleep makes service time dominate, so the
	// 32-way drive genuinely overruns the 4-worker/8-slot server and
	// admission control has something to shed. (Real compiles of these
	// programs are sub-millisecond — the workers would keep up.) The
	// raw b1 half of the stream has no JSON envelope to carry the
	// sleep, so it compiles at full speed between the sleepers.
	for i := range reqs {
		if reqs[i].Debug == nil {
			reqs[i].Debug = &workload.ClientDebug{SleepMS: 5}
		}
	}
	// Expected payloads for every request, under both modes the
	// breaker can leave the server in.
	wantFull := make([]string, n)
	wantNaive := make([]string, n)
	for i, f := range funcs {
		full, _ := localOutput(t, f.Clone(), pipeline.ExpLphiABIC)
		wantFull[i] = full
		nf := f.Clone()
		if _, err := pipeline.Run(nf, s.degraded); err != nil {
			t.Fatal(err)
		}
		wantNaive[i] = nf.String()
	}

	outcomes := make([]int, n)
	outputs := make([]string, n)
	rep := workload.Drive(hs.URL, reqs, workload.DriveOptions{Concurrency: 32}, outcomes, outputs)

	if rep.Transport != 0 || rep.Other != 0 {
		t.Fatalf("daemon instability: transport=%d other=%d (report %v)", rep.Transport, rep.Other, rep)
	}
	if rep.OK+rep.Shed+rep.Deadline+rep.Rejected+rep.Draining != rep.Sent {
		t.Fatalf("responses unaccounted for: %v", rep)
	}
	if rep.Shed == 0 {
		t.Fatalf("32-way drive against a 4+8 server must shed, got %v", rep)
	}
	for i := range reqs {
		faulted := reqs[i].Debug != nil && reqs[i].Debug.PanicPass != ""
		switch outcomes[i] {
		case http.StatusOK:
			if faulted {
				continue // fallback output; correctness covered below
			}
			if outputs[i] != wantFull[i] && outputs[i] != wantNaive[i] {
				t.Fatalf("request %d: served output matches neither the full pipeline nor degraded mode:\n%s", i, outputs[i])
			}
		case http.StatusTooManyRequests:
			// Shed is the only acceptable non-answer under overload.
		default:
			t.Fatalf("request %d: unexpected status %d", i, outcomes[i])
		}
	}
	if got := counterValue(reg, MetricShed); got != int64(rep.Shed) {
		t.Fatalf("shed counter %d != %d observed 429s", got, rep.Shed)
	}

	// --- Phase B: deterministic breaker trip and recovery. ---------
	// The overload phase's faults race admission, so force the trip
	// sequentially: threshold panics of one class, then observe
	// degraded mode, then wait out the cooldown and observe recovery.
	for i := 0; i < 2; i++ {
		rep := postCompile(t, hs.URL, compileRequest{
			LAI:   srcSimple,
			Debug: &debugRequest{PanicPass: "pinning-sp"},
		})
		if rep.status != http.StatusOK || !rep.resp.FellBack {
			t.Fatalf("faulted request: status=%d fellBack=%v", rep.status, rep.resp.FellBack)
		}
	}
	if counterValue(reg, MetricBreakerTrips) == 0 {
		t.Fatal("breaker never tripped")
	}
	probeF := workload.SynthFuncs(1, 9000)[0]
	doc, err := ir.MarshalV1(probeF)
	if err != nil {
		t.Fatal(err)
	}
	degradedRep := postCompile(t, hs.URL, compileRequest{IR: doc})
	if degradedRep.status != http.StatusOK || !degradedRep.resp.Degraded {
		t.Fatalf("want degraded service while tripped, got %+v", degradedRep.resp)
	}
	time.Sleep(1200 * time.Millisecond)
	if rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple}); rep.status != http.StatusOK {
		t.Fatalf("probe request: status %d", rep.status)
	}
	recoveredF := workload.SynthFuncs(1, 9001)[0]
	doc2, err := ir.MarshalV1(recoveredF)
	if err != nil {
		t.Fatal(err)
	}
	if rep := postCompile(t, hs.URL, compileRequest{IR: doc2}); rep.resp.Degraded {
		t.Fatal("breaker must have recovered after the cooldown probe")
	}

	// --- Phase C: clean drain. -------------------------------------
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep := postCompile(t, hs.URL, compileRequest{LAI: srcSimple}); rep.errK != "draining" {
		t.Fatalf("post-drain request: %+v", rep)
	}
}
