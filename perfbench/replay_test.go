package main

import (
	"encoding/json"
	"os"
	"testing"

	"outofssa/internal/pipeline"
)

// TestReplayMatchesPipeline pins the traced run's per-module split to
// the pipeline it stands for: for every Table 1 preset and every Table 5
// variant, plain and checked (as the server runs it, with fallback),
// replaying a job pass by pass through the modules' entry points must
// print byte-identical to pipeline.Run on every paper-suite function.
// A change to the pass order or to a pass's entry point fails here
// before it can skew the split.
func TestReplayMatchesPipeline(t *testing.T) {
	cols, err := tableColumns()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		seen[c.exp] = true
	}
	for _, exp := range pipeline.Presets() {
		if !seen[exp] {
			conf, err := pipeline.Preset(exp)
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, tableCol{exp: exp, conf: conf})
		}
	}
	suites := buildSuites()
	for _, col := range cols {
		for _, checked := range []bool{false, true} {
			conf := col.conf
			conf.Verify, conf.Fallback = checked, checked
			name := col.exp
			if checked {
				name += "/checked"
			}
			t.Run(name, func(t *testing.T) {
				for _, s := range suites {
					for _, master := range s.Funcs {
						want := master.Snapshot()
						res, err := pipeline.Run(want, conf, pipeline.WithExperiment(col.exp))
						if err != nil {
							t.Fatalf("%s/%s: pipeline: %v", s.Name, master.Name, err)
						}
						got := master.Snapshot()
						r, err := replay(stepper{}, got, conf)
						if err != nil {
							t.Fatalf("%s/%s: replay: %v", s.Name, master.Name, err)
						}
						if got.String() != want.String() {
							t.Fatalf("%s/%s: replay prints differently from pipeline.Run:\n%s\nwant:\n%s", s.Name, master.Name, got, want)
						}
						if r.moves != res.Moves || r.weightedMoves != res.WeightedMoves {
							t.Fatalf("%s/%s: replay moves %d/%d, pipeline %d/%d", s.Name, master.Name,
								r.moves, r.weightedMoves, res.Moves, res.WeightedMoves)
						}
					}
				}
			})
		}
	}
}

// TestReplaySpansAddUp checks the traced replay's bookkeeping: every
// replayed call hangs below the span it was given, and the per-layer
// self times of an operation add up to its root span.
func TestReplaySpansAddUp(t *testing.T) {
	conf, err := serverPipeline()
	if err != nil {
		t.Fatal(err)
	}
	master := buildSuites()[0].Funcs[0]
	tr := newTracer()
	root := tr.begin(0, -1, "stats.job")
	p := tr.begin(0, root, "pipeline.Run")
	if _, err := pipeline.Run(master.Snapshot(), conf); err != nil {
		t.Fatal(err)
	}
	tr.finish(p)
	tr.finish(root)
	if _, err := replay(stepper{t: tr, op: 0, parent: p}, master.Snapshot(), conf); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.spans[2:] {
		if s.Parent != p || !s.Replay {
			t.Fatalf("span %q: parent %d replay %v, want parent %d replayed", s.Name, s.Parent, s.Replay, p)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"ssa.Build", "faultinject.InjectCOWAliasing", "verify.Func",
		"ssaopt.Optimize", "pin.CollectSP", "pin.CollectABI", "coalesce.ProgramPinning",
		"leung.Translate", "regalloc.AggressiveCoalesce"} {
		if !names[want] {
			t.Errorf("checked replay of %s recorded no %s span", pipeline.ExpLphiABIC, want)
		}
	}
	sp, err := tr.split(func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range sp.layers {
		sum += v
	}
	if sum != sp.root || sp.ops != 1 {
		t.Fatalf("layers sum to %d ns over %d ops, root span is %d ns", sum, sp.ops, sp.root)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the metric
// tables the runs print in step.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the runs print %d", len(bench.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if bench.EndToEnd[i].Name != m.name || bench.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, runs print %s %s", i, bench.EndToEnd[i].Name, bench.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	if len(bench.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the runs print %d", len(bench.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if bench.PerLayer[i].Name != m.name || bench.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, runs print %s %s", i, bench.PerLayer[i].Name, bench.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}
