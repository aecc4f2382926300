package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRegistry builds a fixed registry exercising every exposition
// shape: an unlabelled counter, a labelled counter family, a gauge, a
// multi-bucket histogram, and label-value escaping.
func goldenRegistry() *Registry {
	r := New()
	r.SetHelp("laoc_demo_runs_total", "Demo runs.")
	r.SetHelp("laoc_demo_pass_wall_ns", "Demo pass wall time.")
	r.Counter("laoc_demo_runs_total").Add(3)
	r.Counter("laoc_demo_moves_total", L("pass", "pinning-phi")).Add(41)
	r.Counter("laoc_demo_moves_total", L("pass", `odd"name\`)).Add(1)
	r.Gauge("laoc_demo_jobs_inflight").Add(2)
	h := r.Histogram("laoc_demo_pass_wall_ns", L("pass", "out-leung"))
	for _, v := range []int64{0, 3, 15, 16, 17, 100, 100, 5000} {
		h.Observe(v)
	}
	return r
}

// TestPrometheusGolden pins the exposition byte-for-byte against
// testdata/promtext.golden (regenerate with `go test
// ./internal/obs/metrics -run Golden -update`; the package goes before
// -update, or go test hands it to the test binary and tests the root
// package).
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writePrometheus(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "promtext.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("prometheus exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestPrometheusValid lint-checks the format rules on the real
// registry shapes: every non-comment line is `name{labels} value`,
// histogram buckets are cumulative and le-sorted, _count equals the
// +Inf bucket, and each family has exactly one TYPE header.
func TestPrometheusValid(t *testing.T) {
	var buf bytes.Buffer
	if err := writePrometheus(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?\d+)$`)
	types := map[string]int{}
	var lastCum int64 = -1
	var lastName string
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]]++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := m[1]
		v, _ := strconv.ParseInt(m[3], 10, 64)
		if strings.HasSuffix(name, "_bucket") {
			if name != lastName {
				lastCum = -1
			}
			if v < lastCum {
				t.Fatalf("bucket series not cumulative at %q: %d after %d", line, v, lastCum)
			}
			lastCum = v
		}
		lastName = name
	}
	for fam, n := range types {
		if n != 1 {
			t.Fatalf("family %s has %d TYPE headers", fam, n)
		}
	}
	if len(types) != 4 {
		t.Fatalf("expected 4 families, saw %d: %v", len(types), types)
	}
}
