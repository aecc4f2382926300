package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerEndpoints drives the exposition mux end-to-end: /metrics
// serves the Prometheus text rendering with the right content type,
// /metrics.json carries the file schema's stamp, and scrapes see
// live counter state (snapshot per request, not at mount time).
func TestHandlerEndpoints(t *testing.T) {
	r := goldenRegistry()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	text, ct := get("/metrics")
	if !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(text, "laoc_demo_runs_total 3") {
		t.Fatalf("/metrics missing counter sample:\n%s", text)
	}

	jsonBody, ct := get("/metrics.json")
	if ct != "application/json" {
		t.Fatalf("/metrics.json content type = %q", ct)
	}
	if !strings.Contains(jsonBody, `"schema": "laoc-metrics-v1"`) {
		t.Fatalf("/metrics.json missing schema stamp:\n%s", jsonBody)
	}

	// Live state: a bump between scrapes must show up.
	r.Counter("laoc_demo_runs_total").Inc()
	text, _ = get("/metrics")
	if !strings.Contains(text, "laoc_demo_runs_total 4") {
		t.Fatalf("scrape did not observe live counter:\n%s", text)
	}

	if body, _ := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline served nothing")
	}
}
