package metrics

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"outofssa/internal/obs"
)

// snapRegistry holds one cell of every shape the file schema carries:
// an unlabelled and a labelled counter, a wall-time histogram and a
// deterministic one.
func snapRegistry() *Registry {
	r := New()
	r.Counter("laoc_g_kills_total", L("engine", "dominance")).Add(355540)
	r.Counter("laoc_g_runs_total").Add(1068)
	w := r.Histogram("laoc_g_pass_wall_ns", L("pass", "out-leung"))
	for _, v := range []int64{1000, 2000, 4000} {
		w.Observe(v)
	}
	m := r.Histogram("laoc_g_maxlive")
	m.SetDeterministic()
	for _, v := range []int64{3, 5, 5, 9} {
		m.Observe(v)
	}
	return r
}

func TestFileSnapshotRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	host := obs.HostInfo()
	if err := WriteJSON(&buf, snapRegistry().Snapshot(), host); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := snapRegistry().Snapshot().file(host)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", got, want)
	}

	if _, err := DecodeFile(strings.NewReader(`{"schema":"laoc-metrics-v0"}`)); err == nil {
		t.Fatalf("wrong schema accepted")
	}
}
