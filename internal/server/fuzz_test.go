package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/workload"
)

// fuzzArgSets are the argument vectors FuzzCompileHandler executes the
// input and the output on, as FuzzPipelineDifferential does.
var fuzzArgSets = [][]int64{{0, 0, 0}, {1, 2, 3}, {9, 4, 2}, {17, 5, 1}}

// fuzzInputSteps is the interpreter budget of the input; an input that
// does not finish within it gives no verdict for that argument set.
const fuzzInputSteps = 100_000

// FuzzCompileHandler sends each input, as the whole /compile body,
// through Handler() in process, on a server configured as laocd ships
// it: the default experiment (Lphi,ABI+C) in checked mode with
// fallback, debug requests refused, a 10 s default deadline. Then:
//
//   - the status is 200 or 400; a 504 is accepted only when the body
//     set its own deadline_ms, since the client chose that budget;
//   - a 200 neither fell back nor is degraded, and its output is the
//     printed IR of a local pipeline.Run of the same decoded input
//     under the server's configuration;
//   - that output agrees with the input under ir.Exec on every argument
//     set on which the input finishes within its budget;
//   - no worker panicked, and /readyz lists no open breaker class.
//
// Run locally with:
//
//	go test -run='^$' -fuzz=FuzzCompileHandler ./internal/server/
func FuzzCompileHandler(f *testing.F) {
	laiFiles, err := filepath.Glob("../lai/testdata/*.lai")
	if err != nil || len(laiFiles) == 0 {
		f.Fatalf("no LAI seeds: %v", err)
	}
	for _, path := range laiFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fuzzBody(f, compileRequest{LAI: string(src)}))
	}
	for _, fn := range workload.VALcc1().Funcs[:3] {
		doc, err := ir.MarshalV1(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fuzzBody(f, compileRequest{IR: doc}))
		b1, err := ir.MarshalBinary(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b1)
	}
	f.Add(fuzzBody(f, compileRequest{LAI: fmt.Sprintf(srcBadPins, 0)}))
	f.Add([]byte(`{"lai":`))
	f.Add([]byte(`{"ir":"bGFvYy1pci1iMQ=="}`))

	s, err := New(Config{DefaultDeadline: 10 * time.Second, Metrics: metrics.New()})
	if err != nil {
		f.Fatal(err)
	}
	s.Start()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			f.Errorf("drain: %v", err)
		}
	})
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
		// The worker settles the panic counter and the breaker before the
		// handler answers, so both are final here.
		checkServerHealthy(t, s, h)

		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			return
		case http.StatusGatewayTimeout:
			var req compileRequest
			if json.Unmarshal(body, &req) == nil && req.DeadlineMS > 0 {
				return
			}
			t.Fatalf("status 504 without a client deadline: %s", rec.Body)
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp compileResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body: %v", err)
		}
		if resp.FellBack || resp.Degraded {
			t.Fatalf("200 fell_back=%v degraded=%v", resp.FellBack, resp.Degraded)
		}

		input, err := decodeBody(body)
		if err != nil {
			t.Fatalf("server compiled a body that does not decode locally: %v", err)
		}
		out, err := decodeBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pipeline.Run(out, s.full,
			pipeline.WithExperiment(s.conf.Experiment),
			pipeline.WithExecBudget(execBudget(s.conf.DefaultDeadline))); err != nil {
			t.Fatalf("local run failed where the server answered 200: %v", err)
		}
		if got := out.String(); resp.Output != got {
			t.Fatalf("server output differs from the local run:\n--- server ---\n%s--- local ---\n%s", resp.Output, got)
		}

		outSteps := out.NumInstrs() + 1
		for _, args := range fuzzArgSets {
			want, err := ir.Exec(input, args, fuzzInputSteps)
			if err != nil {
				continue // the input does not finish: no verdict
			}
			// Each step of the input runs at most one inserted move per
			// output instruction, so this budget only stops divergence.
			got, err := ir.Exec(out, args, (want.Steps+1)*outSteps)
			if err != nil {
				t.Fatalf("args %v: input finishes in %d steps, output: %v", args, want.Steps, err)
			}
			if !want.Equal(got) {
				t.Fatalf("args %v: behaviour diverged\ninput  %+v\noutput %+v", args, want, got)
			}
		}
	})
}

// fuzzBody renders a JSON /compile body.
func fuzzBody(f *testing.F, req compileRequest) []byte {
	body, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	return body
}

// decodeBody decodes a /compile body as handleCompile and compile do:
// a raw b1 document, or the JSON envelope holding LAI text or a v1
// document.
func decodeBody(body []byte) (*ir.Func, error) {
	if ir.IsBinary(body) {
		return ir.Unmarshal(body)
	}
	var req compileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.LAI != "" {
		return lai.Parse(req.LAI)
	}
	return ir.Unmarshal(req.IR)
}

// checkServerHealthy fails t if a worker panicked or a breaker class
// is open.
func checkServerHealthy(t *testing.T, s *Server, h http.Handler) {
	if n := counterValue(s.reg, MetricWorkerPanics); n != 0 {
		t.Fatalf("%s = %d, want 0", MetricWorkerPanics, n)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var ready struct {
		OpenClasses []string `json:"open_classes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatalf("/readyz: %v", err)
	}
	if len(ready.OpenClasses) != 0 {
		t.Fatalf("/readyz lists open classes %v", ready.OpenClasses)
	}
}
