package pipeline_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/obs"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

// expectedPasses mirrors the pass-selection rules of the runner: the
// trace of a run must contain exactly these passes, in this order.
func expectedPasses(conf pipeline.Config) []string {
	var want []string
	add := func(on bool, name string) {
		if on {
			want = append(want, name)
		}
	}
	add(!conf.ABI, "strip-pins")
	add(conf.Optimize, "ssaopt")
	add(conf.Psi, "psi")
	add(conf.Sreedhar, "sreedhar")
	add(true, "pinning-sp")
	add(conf.ABI, "pinning-abi")
	add(conf.Sreedhar, "pinning-cssa")
	add(conf.PrePin, "pre-pin")
	add(conf.PhiCoalesce, "pinning-phi")
	if conf.NaiveOut {
		want = append(want, "out-naive")
	} else {
		want = append(want, "out-of-pinned-ssa")
	}
	add(conf.NaiveABI, "naive-abi")
	add(conf.Chaitin, "chaitin")
	return want
}

// TestTraceWellFormed runs every experiment configuration of Table 1
// under a recording tracer and checks the event stream invariants:
// pass names unique within a run and exactly the enabled phases in
// order, monotonically increasing sequence numbers, and non-negative
// measurements.
func TestTraceWellFormed(t *testing.T) {
	for _, name := range expNames() {
		conf := pipeline.Configs[name]
		for _, mk := range []func() *ir.Func{testprog.Diamond, testprog.SwapLoop} {
			f := mk()
			rec := &obs.Recorder{}
			if _, err := pipeline.Run(f, conf, pipeline.WithExperiment(name), pipeline.WithTracer(rec)); err != nil {
				t.Fatalf("%s/%s: %v", name, f.Name, err)
			}
			if len(rec.Runs) != 1 {
				t.Fatalf("%s/%s: %d recorded runs, want 1", name, f.Name, len(rec.Runs))
			}
			run := rec.Runs[0]
			if !run.Ended {
				t.Fatalf("%s/%s: RunEnd never fired", name, f.Name)
			}
			if run.Func != f.Name || run.Config != name {
				t.Fatalf("%s/%s: run labelled %q/%q", name, f.Name, run.Func, run.Config)
			}
			want := expectedPasses(conf)
			if len(run.Events) != len(want) {
				t.Fatalf("%s/%s: traced %d passes, want %d (%v)", name, f.Name,
					len(run.Events), len(want), want)
			}
			seen := make(map[string]bool)
			for i, ev := range run.Events {
				if ev.Pass != want[i] {
					t.Fatalf("%s/%s: pass %d is %q, want %q", name, f.Name, i, ev.Pass, want[i])
				}
				if seen[ev.Pass] {
					t.Fatalf("%s/%s: duplicate pass name %q", name, f.Name, ev.Pass)
				}
				seen[ev.Pass] = true
				if ev.Seq != i {
					t.Fatalf("%s/%s: pass %q seq %d, want %d", name, f.Name, ev.Pass, ev.Seq, i)
				}
				if ev.Func != f.Name || ev.Config != name {
					t.Fatalf("%s/%s: event labelled %q/%q", name, f.Name, ev.Func, ev.Config)
				}
				if ev.WallNS < 0 {
					t.Fatalf("%s/%s: %s: negative wall time %d", name, f.Name, ev.Pass, ev.WallNS)
				}
				for which, st := range map[string]obs.IRStat{"before": ev.Before, "after": ev.After} {
					if st.Moves < 0 || st.WeightedMoves < 0 || st.Instrs < 0 ||
						st.Phis < 0 || st.Pins < 0 || st.Blocks <= 0 || st.Values < 0 {
						t.Fatalf("%s/%s: %s: bad %s snapshot %+v", name, f.Name, ev.Pass, which, st)
					}
				}
				// Nothing runs between passes: each pass must pick up the
				// IR exactly where the previous one left it.
				if i > 0 && ev.Before != run.Events[i-1].After {
					t.Fatalf("%s/%s: %s: before-snapshot %+v != previous after %+v",
						name, f.Name, ev.Pass, ev.Before, run.Events[i-1].After)
				}
			}
			last := run.Events[len(run.Events)-1]
			if last.After.Phis != 0 {
				t.Fatalf("%s/%s: %d φs survived the traced pipeline", name, f.Name, last.After.Phis)
			}
		}
	}
}

// TestTracingDoesNotPerturbResults: the measured pipeline must compute
// exactly what the unmeasured one does.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for _, name := range expNames() {
		conf := pipeline.Configs[name]
		plain, err := pipeline.Run(testprog.Rand(7, testprog.DefaultRandOptions()), conf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		traced, err := pipeline.Run(testprog.Rand(7, testprog.DefaultRandOptions()),
			conf, pipeline.WithExperiment(name), pipeline.WithTracer(&obs.Recorder{}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plain.Moves != traced.Moves || plain.WeightedMoves != traced.WeightedMoves ||
			plain.Instrs != traced.Instrs {
			t.Fatalf("%s: traced run diverged: moves %d/%d weighted %d/%d instrs %d/%d",
				name, plain.Moves, traced.Moves, plain.WeightedMoves, traced.WeightedMoves,
				plain.Instrs, traced.Instrs)
		}
	}
}

// jsonlRequired lists the keys every record type must carry — the
// golden schema of the JSONL sink. Producers may add keys; they must
// never drop these.
var jsonlRequired = map[string][]string{
	"run_start": {"type", "fn", "config", "ir"},
	"pass":      {"type", "fn", "config", "pass", "seq", "wall_ns", "before", "after"},
	"run_end":   {"type", "fn", "config", "passes", "wall_ns", "ir"},
}

var irStatRequired = []string{"moves", "weighted_moves", "instrs", "phis", "pins", "blocks", "values"}

// TestJSONLGoldenSchema drives a real pipeline run through the JSONL
// sink and validates every emitted line against the documented schema.
func TestJSONLGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	name := pipeline.ExpLphiABIC
	if _, err := pipeline.Run(testprog.SwapLoop(), pipeline.Configs[name],
		pipeline.WithExperiment(name), pipeline.WithTracer(obs.NewJSONL(&buf))); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("want at least run_start+pass+run_end, got %d lines", len(lines))
	}
	var passes int
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: invalid JSON: %v\n%s", i, err, line)
		}
		typ, _ := rec["type"].(string)
		req, ok := jsonlRequired[typ]
		if !ok {
			t.Fatalf("line %d: unknown record type %q", i, typ)
		}
		for _, k := range req {
			if _, ok := rec[k]; !ok {
				t.Fatalf("line %d (%s): missing required key %q\n%s", i, typ, k, line)
			}
		}
		for _, irKey := range []string{"ir", "before", "after"} {
			st, ok := rec[irKey].(map[string]any)
			if !ok {
				continue
			}
			for _, k := range irStatRequired {
				if _, ok := st[k]; !ok {
					t.Fatalf("line %d (%s): %s missing key %q", i, typ, irKey, k)
				}
			}
		}
		switch typ {
		case "run_start":
			if i != 0 {
				t.Fatalf("line %d: run_start not first", i)
			}
		case "pass":
			if int(rec["seq"].(float64)) != passes {
				t.Fatalf("line %d: seq %v, want %d", i, rec["seq"], passes)
			}
			if rec["wall_ns"].(float64) < 0 {
				t.Fatalf("line %d: negative wall_ns", i)
			}
			passes++
		case "run_end":
			if i != len(lines)-1 {
				t.Fatalf("line %d: run_end not last", i)
			}
			if int(rec["passes"].(float64)) != passes {
				t.Fatalf("run_end passes=%v, want %d", rec["passes"], passes)
			}
		}
	}
	if passes == 0 {
		t.Fatal("no pass records emitted")
	}
}
