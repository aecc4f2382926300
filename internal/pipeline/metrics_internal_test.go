package pipeline

import (
	"errors"
	"reflect"
	rtmetrics "runtime/metrics"
	"testing"

	"outofssa/internal/coalesce"
	"outofssa/internal/faultinject"
	"outofssa/internal/ir"
	"outofssa/internal/naiveabi"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/outofssa/naive"
	"outofssa/internal/outofssa/sreedhar"
	"outofssa/internal/psi"
	"outofssa/internal/regalloc"
	"outofssa/internal/ssaopt"
	"outofssa/internal/testprog"
	"outofssa/internal/workload"
)

// TestNilMetricsAllocatesNothing pins the disabled-metrics contract
// alongside TestNilTracerAllocatesNothing: a run with neither tracer
// nor registry attached — including one configured through
// WithMetrics(nil), the shape every conditional caller produces — must
// not allocate in the runner.
func TestNilMetricsAllocatesNothing(t *testing.T) {
	f := ir.NewFunc("noalloc")
	f.NewBlock("entry")
	ok := func() error { return nil }
	ps := []pass{namedPass("a", ok), namedPass("b", ok)}
	r := &Result{}
	var rc runConfig
	WithMetrics(nil)(&rc)
	if rc.metrics != nil {
		t.Fatal("WithMetrics(nil) installed a registry")
	}
	n := testing.AllocsPerRun(200, func() {
		if err := runPasses(f, nil, r, "", ps, nil, runOpts{metrics: rc.metrics}); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("nil-metrics runPasses allocates %v per run, want 0", n)
	}
}

// TestMetricsMirrorMatchesTraceCounters: the registry records the same
// event the tracer receives, so every pass-counter mirror cell must
// equal the recorder's total for its (pass, counter), with no cell
// missing or extra, and the headline per-run metrics must line up with
// the trace.
func TestMetricsMirrorMatchesTraceCounters(t *testing.T) {
	reg := metrics.New()
	rec := &obs.Recorder{}
	conf, err := Preset(ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	funcs := []*ir.Func{testprog.Diamond(), testprog.SwapLoop(), testprog.NestedLoops()}
	for _, f := range funcs {
		if _, err := Run(f, conf, WithExperiment(ExpLphiABIC), WithTracer(rec), WithMetrics(reg)); err != nil {
			t.Fatal(err)
		}
	}

	totals := map[[2]string]int64{}
	passEvents := 0
	for _, run := range rec.Runs {
		for _, ev := range run.Events {
			passEvents++
			for _, c := range ev.Counters {
				totals[[2]string{ev.Pass, c.Name}] += c.Value
			}
		}
	}
	if len(totals) == 0 {
		t.Fatal("traced runs carried no counters")
	}
	s := reg.Snapshot()
	cells := 0
	for _, c := range s.Counters {
		if c.Name != MetricPassCounters {
			continue
		}
		cells++
		var k [2]string
		for _, l := range c.Labels {
			switch l.Key {
			case "pass":
				k[0] = l.Value
			case "counter":
				k[1] = l.Value
			}
		}
		if want, ok := totals[k]; !ok || want != c.Value {
			t.Errorf("%s{pass=%q,counter=%q} = %d, trace total %d (traced: %v)",
				MetricPassCounters, k[0], k[1], c.Value, want, ok)
		}
	}
	if cells != len(totals) {
		t.Fatalf("%d mirror cells for %d traced (pass, counter) pairs", cells, len(totals))
	}

	find := func(name string) *metrics.HistogramSnap {
		for i := range s.Histograms {
			if s.Histograms[i].Name == name {
				return &s.Histograms[i]
			}
		}
		return nil
	}
	runs := int64(0)
	for _, c := range s.Counters {
		if c.Name == MetricRuns {
			runs += c.Value
		}
	}
	if runs != int64(len(funcs)) {
		t.Fatalf("%s = %d, want %d", MetricRuns, runs, len(funcs))
	}
	wallCount := int64(0)
	for i := range s.Histograms {
		if s.Histograms[i].Name == MetricPassWallNS {
			wallCount += s.Histograms[i].Count
		}
	}
	if wallCount != int64(passEvents) {
		t.Fatalf("pass wall observations %d != traced pass events %d", wallCount, passEvents)
	}
	ml := find(MetricMaxLive)
	if ml == nil || ml.Count != int64(len(funcs)) || !ml.Deterministic {
		t.Fatalf("MAXLIVE histogram wrong: %+v", ml)
	}
	if ml.Min < 1 {
		t.Fatalf("MAXLIVE min = %d, want >= 1 on non-trivial programs", ml.Min)
	}
}

// TestCounterListsMatchStatsFields keeps each pass Stats type's
// explicit counter list in step with its struct: every exported
// integer field — nested ones under their field path — appears exactly
// once, under its field name, with its value. Reflection is the oracle
// here and only here.
func TestCounterListsMatchStatsFields(t *testing.T) {
	for _, st := range []counterLister{&ssaopt.Stats{}, &psi.Stats{}, &sreedhar.Stats{},
		&coalesce.PrePinStats{}, &coalesce.Stats{}, &leung.Stats{}, &naive.Stats{},
		&naiveabi.Stats{}, &regalloc.Stats{}, &cssaStats{}} {
		want := map[string]int64{}
		var fill func(v reflect.Value, prefix string)
		fill = func(v reflect.Value, prefix string) {
			for i := 0; i < v.NumField(); i++ {
				f, fv := v.Type().Field(i), v.Field(i)
				if !f.IsExported() {
					continue
				}
				switch fv.Kind() {
				case reflect.Struct:
					fill(fv, prefix+f.Name+".")
				case reflect.Int, reflect.Int64:
					n := int64(len(want) + 1) // distinct per field
					fv.SetInt(n)
					want[prefix+f.Name] = n
				default:
					t.Fatalf("%T: field %s%s has kind %s, not a counter", st, prefix, f.Name, fv.Kind())
				}
			}
		}
		fill(reflect.ValueOf(st).Elem(), "")
		got := map[string]int64{}
		for _, c := range st.AppendCounters(nil) {
			if _, dup := got[c.Name]; dup {
				t.Fatalf("%T: counter %s listed twice", st, c.Name)
			}
			got[c.Name] = c.Value
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: counter list %v, struct fields %v", st, got, want)
		}
	}
}

// TestMetricsNeverStopTheWorld pins that a registry is cheap enough to
// leave on where laocd runs it: its preset (checked + fallback) with
// WithMetrics attached must not stop the world. Every
// runtime.ReadMemStats adds one sample to the runtime's non-GC pause
// histogram while runtime/metrics.Read adds none, and this package runs
// no parallel tests, so any growth is the runner's doing.
func TestMetricsNeverStopTheWorld(t *testing.T) {
	conf, err := Preset(ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	conf.Verify, conf.Fallback = true, true
	funcs := workload.SynthFuncs(40, 15)
	reg := metrics.New()
	before := nonGCPauses(t)
	for _, f := range funcs {
		if _, err := Run(f, conf, WithExperiment(ExpLphiABIC), WithMetrics(reg)); err != nil {
			t.Fatal(err)
		}
	}
	pauses := nonGCPauses(t) - before
	if got := reg.Counter(MetricRuns, metrics.L("config", ExpLphiABIC)).Value(); got != int64(len(funcs)) {
		t.Fatalf("%s = %d, want %d: the registry was not attached", MetricRuns, got, len(funcs))
	}
	if pauses != 0 {
		t.Fatalf("%d non-GC stop-the-world pauses across %d metered runs, want 0", pauses, len(funcs))
	}
}

// nonGCPauses returns the sample count of the runtime's histogram of
// stop-the-world pauses not caused by the garbage collector.
func nonGCPauses(t *testing.T) uint64 {
	t.Helper()
	s := []rtmetrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		t.Fatalf("runtime/metrics has no %s histogram", s[0].Name)
	}
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestMetricsErrorPanicFallbackCounters drives the failure counters:
// an erroring pass, a panicking pass, and a rescued fallback run.
func TestMetricsErrorPanicFallbackCounters(t *testing.T) {
	reg := metrics.New()
	f := ir.NewFunc("failing")
	f.NewBlock("entry")
	boom := errors.New("synthetic")
	ps := []pass{
		namedPass("ok", func() error { return nil }),
		namedPass("fails", func() error { return boom }),
	}
	if err := runPasses(f, nil, &Result{}, "exp", ps, nil, runOpts{metrics: reg}); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	ps[1] = namedPass("fails", func() error { panic("kaboom") })
	if err := runPasses(f, nil, &Result{}, "exp", ps, nil, runOpts{metrics: reg}); err == nil {
		t.Fatal("panic not surfaced")
	}
	if got := reg.Counter(MetricPassErrors, metrics.L("pass", "fails")).Value(); got != 2 {
		t.Fatalf("%s{pass=fails} = %d, want 2", MetricPassErrors, got)
	}
	if got := reg.Counter(MetricPanics).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricPanics, got)
	}

	// A verify-failing run under Fallback: the fallback counter bumps
	// and the fallback passes are recorded like any others.
	conf, err := Preset(ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	conf.Verify = true
	conf.Fallback = true
	sab := false
	conf.FaultHook = func(pass string, g *ir.Func) {
		if pass == "pinning-sp" && !sab {
			sab = faultinject.Inject(g, faultinject.DoubleDef)
		}
	}
	g := testprog.SwapLoop()
	res, err := Run(g, conf, WithExperiment("fault"), WithMetrics(reg))
	if err != nil || !sab {
		t.Fatalf("fallback run: err=%v injected=%v", err, sab)
	}
	if !res.FellBack {
		t.Fatal("run did not fall back")
	}
	if got := reg.Counter(MetricFallbacks).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricFallbacks, got)
	}
	fb := reg.Snapshot()
	seen := false
	for i := range fb.Histograms {
		if fb.Histograms[i].Name == MetricPassWallNS && len(fb.Histograms[i].Labels) == 1 &&
			fb.Histograms[i].Labels[0].Value == "fallback-out-naive" {
			seen = fb.Histograms[i].Count == 1
		}
	}
	if !seen {
		t.Fatal("fallback passes not recorded in the pass wall histogram")
	}
}

// TestBatchMetrics checks the RunBatch instrumentation: jobs counted,
// queue drained, nothing left in flight, per-job wall observed once per
// job — at both parallelism settings — and counter totals identical
// between serial and parallel runs (atomic adds commute).
func TestBatchMetrics(t *testing.T) {
	conf, err := Preset(ExpLphiABIC)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(Column{Config: conf, Experiment: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	jobs := func() []Job {
		var js []Job
		for _, f := range []*ir.Func{testprog.Diamond(), testprog.SwapLoop(), testprog.NestedLoops(), testprog.Loop()} {
			js = append(js, Job{Build: f.Clone, Plan: plan})
		}
		return js
	}

	counterTotals := func(s *metrics.Snapshot) map[string]int64 {
		m := map[string]int64{}
		for _, c := range s.Counters {
			key := c.Name
			for _, l := range c.Labels {
				key += "|" + l.Key + "=" + l.Value
			}
			m[key] = c.Value
		}
		return m
	}

	var snaps []*metrics.Snapshot
	for _, par := range []int{1, 4} {
		reg := metrics.New()
		for _, r := range RunBatch(jobs(), WithParallelism(par), WithBatchMetrics(reg)) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		if got := reg.Counter(MetricBatchJobs).Value(); got != 4 {
			t.Fatalf("parallel=%d: %s = %d, want 4", par, MetricBatchJobs, got)
		}
		if got := reg.Gauge(MetricBatchQueueDepth).Value(); got != 0 {
			t.Fatalf("parallel=%d: queue depth = %d after batch, want 0", par, got)
		}
		if got := reg.Gauge(MetricBatchInflight).Value(); got != 0 {
			t.Fatalf("parallel=%d: %d jobs still in flight", par, got)
		}
		s := reg.Snapshot()
		for i := range s.Histograms {
			if s.Histograms[i].Name == MetricBatchJobWallNS && s.Histograms[i].Count != 4 {
				t.Fatalf("parallel=%d: job wall count = %d, want 4", par, s.Histograms[i].Count)
			}
		}
		snaps = append(snaps, s)
	}
	serial, par := counterTotals(snaps[0]), counterTotals(snaps[1])
	if len(serial) != len(par) {
		t.Fatalf("counter cell sets differ: %d vs %d", len(serial), len(par))
	}
	for k, v := range serial {
		if par[k] != v {
			t.Fatalf("counter %s: serial %d != parallel %d", k, v, par[k])
		}
	}
}
