package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// layerMetrics are the per-layer metrics every traced run prints, in
// BENCHMARK.json order. A layer is a module of the repository; a
// module a workload never calls reports 0.
var layerMetrics = []struct{ name, unit string }{
	// Self time per function, from the spans of the replayed operations.
	{"ssa.ms_per_func", "ms"},
	{"ssaopt.ms_per_func", "ms"},
	{"sreedhar.ms_per_func", "ms"},
	{"pin.ms_per_func", "ms"},
	{"analysis.ms_per_func", "ms"},
	{"interference.ms_per_func", "ms"},
	{"coalesce.ms_per_func", "ms"},
	{"leung.ms_per_func", "ms"},
	{"naive.ms_per_func", "ms"},
	{"naiveabi.ms_per_func", "ms"},
	{"regalloc.ms_per_func", "ms"},
	{"cfg.ms_per_func", "ms"},
	{"verify.ms_per_func", "ms"},
	{"faultinject.ms_per_func", "ms"},
	{"ir.ms_per_func", "ms"},
	{"lai.ms_per_func", "ms"},
	{"pipeline.self_ms_per_func", "ms"},
	{"server.self_ms_per_func", "ms"},
	{"stats.ms_per_func", "ms"},
	{"workload.ms_per_func", "ms"},
	{"trace.root_ms_per_func", "ms"},

	// Work counts and ratios at the layer boundaries.
	{"interference.kill_queries_per_func", "count"},
	{"interference.memo_hit_ratio", "ratio"},
	{"liveness.query_hit_ratio", "ratio"},
	{"analysis.liveness_reuse_ratio", "ratio"},
	{"analysis.dominators_reuse_ratio", "ratio"},
	{"pipeline.core_utilization", "ratio"},
	{"ir.snapshots_per_func", "count"},
	{"ir.cow_copy_ratio", "ratio"},
	{"ir.slab_copies_per_func", "count"},
	{"lai.parse_us_p50", "us"},
	{"ir.decode_b1_us_p50", "us"},
	{"ir.decode_v1_us_p50", "us"},
	{"ir.snapshot_us_p50", "us"},
	{"ir.print_us_p50", "us"},
	{"server.handle_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.decode_hit_ratio", "ratio"},
	{"server.failed", "count"},
	{"cachestore.appends_per_func", "count"},
	{"cachestore.append_bytes_per_func", "B"},
	{"cachestore.dropped", "count"},
	{"cachestore.compactions", "count"},
	{"cachestore.warm_scan_ms", "ms"},
	{"cachestore.warm_records", "count"},
	{"runtime.gc_cycles_per_kfunc", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"workload.client_us_p50", "us"},
	{"host.steal_s", "s"},
	{"host.probe_ms", "ms"},
	{"trace.replayed_ops", "count"},
	{"trace.overhead_cpu_ratio", "ratio"},
	{"trace.overhead_p50_ratio", "ratio"},
}

// span is one timed call. Spans of one operation share Op; a root has
// Parent -1. A replayed span re-enacts, after the timed phase, work its
// parent did inside the program, where the benchmark cannot see it:
// its Start and End are the replay's own clock readings and its Parent
// is the span whose work it stands for.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// layer is the module a span belongs to: its name up to the first dot.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps every span of a run in memory; write puts them in a file
// once the run is over. It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a clock reading to the tracer's monotonic offset.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span and returns its id.
func (t *tracer) add(op, parent int, name string, start, end int64, replay bool) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: end, Replay: replay})
	return id
}

// begin opens a span that finish closes.
func (t *tracer) begin(op, parent int, name string) int {
	return t.add(op, parent, name, t.now(), 0, false)
}

func (t *tracer) finish(id int) { t.spans[id].End = t.now() }

// stepper times calls as replayed children of one parent span. The zero
// stepper (no tracer) just makes the calls, which is how the replay
// test drives the same code.
type stepper struct {
	t          *tracer
	op, parent int
}

func (s stepper) step(name string, fn func() error) error {
	if s.t == nil {
		return fn()
	}
	start := s.t.now()
	err := fn()
	s.t.add(s.op, s.parent, name, start, s.t.now(), true)
	return err
}

// under returns a stepper whose spans hang below span id.
func (s stepper) under(id int) stepper { return stepper{t: s.t, op: s.op, parent: id} }

// split is the per-layer self time of a set of operations. Self time is
// a span's duration minus its children's, so the layers of one
// operation add up to its root span exactly; it is computed from
// durations rather than interval overlap because replayed children lie
// outside their parent's interval.
type split struct {
	ops    int
	root   int64
	layers map[string]int64
	// selfOf[name] lists the self time of every span with that name.
	selfOf map[string][]float64
	durOf  map[string][]float64
}

func (t *tracer) split(include func(op int) bool) (*split, error) {
	children := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] += t.spans[i].dur()
		}
	}
	sp := &split{layers: map[string]int64{}, selfOf: map[string][]float64{}, durOf: map[string][]float64{}}
	perOp := map[int]int64{}
	rootOf := map[int]int64{}
	for i := range t.spans {
		s := &t.spans[i]
		if !include(s.Op) {
			continue
		}
		self := s.dur() - children[i]
		sp.layers[s.layer()] += self
		perOp[s.Op] += self
		sp.selfOf[s.Name] = append(sp.selfOf[s.Name], float64(self))
		sp.durOf[s.Name] = append(sp.durOf[s.Name], float64(s.dur()))
		if s.Parent < 0 {
			sp.ops++
			sp.root += s.dur()
			rootOf[s.Op] += s.dur()
		}
	}
	for op, sum := range perOp {
		if sum != rootOf[op] {
			return nil, fmt.Errorf("trace: operation %d: layer self times sum to %d ns, root span is %d ns", op, sum, rootOf[op])
		}
	}
	return sp, nil
}

// msPerFunc is a layer's self time per operation, in milliseconds.
func (sp *split) msPerFunc(layer string) float64 {
	return ratio(float64(sp.layers[layer])/1e6, float64(sp.ops))
}

// p50us is the median duration of the spans called name, in µs.
func (sp *split) p50us(name string) float64 { return median(sp.durOf[name]) / 1e3 }

// fill writes the module self times into the report.
func (sp *split) fill(rep *report) {
	for _, m := range layerMetrics {
		layer, rest, _ := strings.Cut(m.name, ".")
		switch rest {
		case "ms_per_func", "self_ms_per_func":
			rep.layers[m.name] = sp.msPerFunc(layer)
		}
	}
	rep.layers["trace.root_ms_per_func"] = ratio(float64(sp.root)/1e6, float64(sp.ops))
	rep.layers["trace.replayed_ops"] = float64(sp.ops)
	rep.layers["lai.parse_us_p50"] = sp.p50us("lai.Parse")
	rep.layers["ir.decode_b1_us_p50"] = sp.p50us("ir.Unmarshal/b1")
	rep.layers["ir.decode_v1_us_p50"] = sp.p50us("ir.Unmarshal/v1")
	rep.layers["ir.snapshot_us_p50"] = sp.p50us("ir.Func.Snapshot")
	rep.layers["ir.print_us_p50"] = sp.p50us("ir.Func.String")
}

// write stores the spans as JSON lines, after one header line that
// stamps the host.
func (t *tracer) write(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
