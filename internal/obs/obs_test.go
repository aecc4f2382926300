package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"outofssa/internal/obs"
)

func TestMultiFiltersNil(t *testing.T) {
	if obs.Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if obs.Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	rec := &obs.Recorder{}
	if got := obs.Multi(nil, rec); got != obs.Tracer(rec) {
		t.Fatalf("Multi(nil, rec) = %T, want the recorder itself", got)
	}
	// Two live tracers: both must receive every event.
	r1, r2 := &obs.Recorder{}, &obs.Recorder{}
	m := obs.Multi(r1, r2)
	m.RunStart("f", "c", obs.IRStat{})
	m.PassStart("f", "c", "p")
	m.PassEnd(&obs.Event{Func: "f", Config: "c", Pass: "p"})
	m.RunEnd("f", "c", obs.IRStat{}, 1)
	for i, r := range []*obs.Recorder{r1, r2} {
		if len(r.Runs) != 1 || !r.Runs[0].Ended || len(r.Runs[0].Events) != 1 {
			t.Fatalf("tracer %d missed events: %+v", i, r.Runs)
		}
	}
}

func TestSummaryRendersTable(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewSummary(&buf)
	s.Verbose = true
	s.RunStart("fir", "Lphi+C", obs.IRStat{Moves: 5})
	s.PassStart("fir", "Lphi+C", "ssaopt")
	s.PassEnd(&obs.Event{
		Func: "fir", Config: "Lphi+C", Pass: "ssaopt",
		WallNS: 1500, AllocBytes: 2048,
		Before:   obs.IRStat{Moves: 5, Instrs: 30, Phis: 2},
		After:    obs.IRStat{Moves: 3, Instrs: 28, Phis: 2},
		Counters: []obs.Counter{{Name: "Rounds", Value: 2}},
	})
	s.RunEnd("fir", "Lphi+C", obs.IRStat{Moves: 3}, 2000)
	out := buf.String()
	for _, want := range []string{"fir [Lphi+C]", "ssaopt", "-2", "ssaopt.Rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	j.RunStart("f", "c", obs.IRStat{Moves: 1})
	j.PassEnd(&obs.Event{Func: "f", Config: "c", Pass: "p", Seq: 0,
		Counters: []obs.Counter{{Name: "N", Value: 4}}})
	j.RunEnd("f", "c", obs.IRStat{}, 10)
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), buf.String())
	}
	types := []string{"run_start", "pass", "run_end"}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec["type"] != types[i] {
			t.Fatalf("line %d: type %v, want %s", i, rec["type"], types[i])
		}
	}
	var pass struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(lines[1], &pass); err != nil {
		t.Fatal(err)
	}
	if pass.Counters["p.N"] != 4 {
		t.Fatalf("counters did not round-trip: %v", pass.Counters)
	}
}

func TestNopDiscards(t *testing.T) {
	// Must simply not panic.
	obs.Nop.RunStart("f", "c", obs.IRStat{})
	obs.Nop.PassStart("f", "c", "p")
	obs.Nop.PassEnd(&obs.Event{})
	obs.Nop.RunEnd("f", "c", obs.IRStat{}, 0)
}
