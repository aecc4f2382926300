// Package metrics is the typed metrics substrate of the repository: a
// low-overhead registry of atomic counters, gauges and log-linear
// histograms with cheap static labels, a deterministic snapshot API,
// and the exposition writers (Prometheus text format, JSON) that laocd
// and the CLIs serve.
//
// Design constraints, in order:
//
//   - Disabled must be free. Every instrument method has a nil-receiver
//     fast path and a nil *Registry hands out nil instruments, so code
//     can unconditionally write `reg.Counter(name).Inc()` style calls
//     and pay nothing (zero allocations, pinned by test) when metrics
//     are off. This is the same discipline as the nil obs.Tracer.
//   - Enabled updates are lock-free. Counter/Gauge/Histogram updates
//     are plain atomics on pre-registered cells; the registry lock is
//     taken only on handle lookup and snapshot. Hot loops hold handles.
//   - Snapshots are deterministic. Snapshot sorts by (name, labels), so
//     two runs of the same serial workload produce byte-identical
//     exposition for every deterministic metric, which is what lets
//     TestCountersGolden (internal/stats) pin the table runs' counters
//     against committed text.
//
// The naming schema (DESIGN.md): `laoc_<subsystem>_<name>` with unit
// suffixes (`_total` for counters, `_ns`/`_bytes` for histograms) and
// static labels for the cardinality axes (pass, config, engine, table).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one static metric dimension, attached at handle-lookup time.
// Labels are expected to have tiny cardinality (pass names, engine
// names, presets) — every distinct (name, labels) pair is its own cell.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the instrument types of a registry entry.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "counter"
}

// Registry owns a set of metric cells keyed by (name, sorted labels).
// All methods are safe for concurrent use; a nil *Registry is the
// disabled registry and hands out nil (no-op) instruments.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	help    map[string]string
}

type entry struct {
	name   string
	labels []Label // sorted by key
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() int64 // non-nil for CounterFunc entries
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*entry), help: make(map[string]string)}
}

// Default is the process-wide registry. Package-level counters (the
// analysis cache, engine totals) live here; the CLIs snapshot it for
// -metrics-out and serve it on -metrics-addr. It is always enabled —
// counter updates are single atomic adds — while the expensive per-pass
// measurement in the pipeline runner stays opt-in via WithMetrics.
var Default = New()

// key renders the canonical cell key. labels must already be sorted.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// lookup finds or creates the cell, enforcing kind consistency. A kind
// clash (the same name registered as two instrument types) is a
// programming error and panics with both kinds named.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *entry {
	ls := sortLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[k]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: ls, kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = &Histogram{minv: histMinInit, maxv: histMaxInit}
	}
	r.entries[k] = e
	return e
}

// Counter returns the counter cell for (name, labels), creating it on
// first use. Hold the handle in hot loops — the lookup takes the
// registry lock and builds a key string. Nil registry returns nil, and
// every Counter method is a no-op on nil.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, labels).c
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time — the bridge for pre-existing atomic counters that
// should appear in exposition without double bookkeeping. Re-registering
// the same (name, labels) replaces the function.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.lookup(name, KindCounter, labels)
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// Gauge returns the gauge cell for (name, labels). Same contract as
// Counter.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, labels).g
}

// Histogram returns the histogram cell for (name, labels). Same
// contract as Counter. Histograms are log-linear (see histogram.go) and
// mergeable; by default they are marked non-deterministic (wall times,
// allocation volumes), so only their observation counts repeat from
// run to run. Use SetDeterministic for histograms over deterministic
// quantities (e.g. MAXLIVE).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, labels).h
}

// SetHelp attaches a Prometheus HELP string to a metric family name.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// Snapshot captures every cell into a deterministic, sorted, immutable
// view. Concurrent updates during the snapshot are torn only across
// cells (each cell is read atomically), which is the usual scrape
// semantics.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	s.Help = make(map[string]string, len(r.help))
	for k, v := range r.help {
		s.Help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return labelsLess(entries[i].labels, entries[j].labels)
	})
	for _, e := range entries {
		switch e.kind {
		case KindCounter:
			v := e.c.Value()
			if e.fn != nil {
				v = e.fn()
			}
			s.Counters = append(s.Counters, CounterSnap{Name: e.name, Labels: e.labels, Value: v})
		case KindGauge:
			s.Gauges = append(s.Gauges, GaugeSnap{Name: e.name, Labels: e.labels, Value: e.g.Value()})
		case KindHistogram:
			s.Histograms = append(s.Histograms, e.h.snap(e.name, e.labels))
		}
	}
	return s
}

func labelsLess(a, b []Label) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Key != b[i].Key {
			return a[i].Key < b[i].Key
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}

// Snapshot is the deterministic point-in-time view of a registry,
// sorted by (name, labels) within each instrument kind.
type Snapshot struct {
	Counters   []CounterSnap
	Gauges     []GaugeSnap
	Histograms []HistogramSnap
	Help       map[string]string
}

// CounterSnap is one counter cell.
type CounterSnap struct {
	Name   string
	Labels []Label
	Value  int64
}

// GaugeSnap is one gauge cell.
type GaugeSnap struct {
	Name   string
	Labels []Label
	Value  int64
}
