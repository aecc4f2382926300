package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"outofssa/internal/ir"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/workload"
)

// TestSuiteIdentityThroughServer keeps the Tables 1-5 byte-identity
// gate honest across the network: compiling every stats-suite function
// through the server path (raw-IR mode, both wire schemas) must yield
// exactly the output of pipeline.Run locally — cold, and again warm
// from the verified cache. Posting the v1 and binary b1 documents of
// one function exercises the schema negotiation: the server dispatches
// on the b1 magic and both must land on identical output. The server
// runs with persistence on, so the identity gate also covers the
// write-behind path.
func TestSuiteIdentityThroughServer(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite identity run in -short mode")
	}
	reg := metrics.New()
	s, hs, _ := startServer(t, Config{
		Workers:         4,
		QueueDepth:      256,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     30 * time.Second,
		CacheEntries:    4096,
		Metrics:         reg,
		CacheDir:        t.TempDir(),
	})
	_ = s

	suites := []*workload.Suite{
		workload.VALcc1(), workload.VALcc2(), workload.Examples(),
		workload.LAILarge(), workload.SPECint(),
	}
	type wantRec struct {
		docV1  []byte
		docB1  []byte
		output string
		moves  int
	}
	var wants []wantRec
	for _, suite := range suites {
		for _, f := range suite.Funcs {
			docV1, err := ir.MarshalV1(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", suite.Name, f.Name, err)
			}
			docB1, err := ir.MarshalBinary(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", suite.Name, f.Name, err)
			}
			out, res := localOutput(t, f.Clone(), s.conf.Experiment)
			wants = append(wants, wantRec{docV1: docV1, docB1: docB1, output: out, moves: res.Moves})
		}
	}

	passes := []struct {
		name       string
		wantCached bool
	}{{"cold", false}, {"warm", true}}
	for _, p := range passes {
		pass, wantCached := p.name, p.wantCached
		for i, w := range wants {
			for _, doc := range [][]byte{w.docV1, w.docB1} {
				var rep compileReply
				if ir.IsBinary(doc) {
					rep = postRawCompile(t, hs.URL, doc)
				} else {
					rep = postCompile(t, hs.URL, compileRequest{IR: doc})
				}
				if rep.status != http.StatusOK {
					t.Fatalf("%s pass, func %d: status %d (%s)", pass, i, rep.status, rep.errK)
				}
				if rep.resp.Output != w.output {
					t.Fatalf("%s pass, func %d (%s): server output differs from local pipeline.Run", pass, i, rep.resp.Name)
				}
				if rep.resp.Moves != w.moves {
					t.Fatalf("%s pass, func %d: moves %d != local %d", pass, i, rep.resp.Moves, w.moves)
				}
				if rep.resp.FellBack || rep.resp.Degraded {
					t.Fatalf("%s pass, func %d: unexpected flags %+v", pass, i, rep.resp)
				}
				if rep.resp.Cached != wantCached {
					t.Fatalf("%s pass, func %d: cached=%v, want %v", pass, i, rep.resp.Cached, wantCached)
				}
			}
		}
	}
	if hits := counterValue(reg, MetricCacheHits); hits != int64(2*len(wants)) {
		t.Fatalf("cache hits = %d, want %d (one per warm request, both schemas)", hits, 2*len(wants))
	}
}

// postRawCompile posts a whole-body binary document (no JSON envelope).
func postRawCompile(t *testing.T, url string, doc []byte) compileReply {
	t.Helper()
	hr, err := http.Post(url+"/compile", "application/octet-stream", bytes.NewReader(doc))
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
	rep.errK = env.Error.Kind
	return rep
}
