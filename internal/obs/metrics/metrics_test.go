package metrics

import (
	"bytes"
	"reflect"
	"testing"
)

// TestDisabledRegistryAllocatesNothing pins the disabled-path contract:
// a nil *Registry hands out nil instruments and every call — lookup
// included — performs zero heap allocations. Note the pin covers only
// label-less lookups: a labeled lookup materializes the variadic label
// slice before the receiver's nil check can run, which is exactly why
// instrumentation sites guard labeled calls with `if reg != nil`.
func TestDisabledRegistryAllocatesNothing(t *testing.T) {
	var reg *Registry
	c := reg.Counter("laoc_test_total")
	g := reg.Gauge("laoc_test_depth")
	h := reg.Histogram("laoc_test_ns")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil instruments: %v %v %v", c, g, h)
	}
	n := testing.AllocsPerRun(200, func() {
		reg.Counter("laoc_test_total").Inc()
		reg.Counter("laoc_test_total").Add(3)
		reg.Gauge("laoc_test_depth").Add(7)
		reg.Histogram("laoc_test_ns").Observe(123456)
		reg.SetHelp("laoc_test_total", "ignored")
		c.Inc()
		c.Add(2)
		g.Dec()
		h.Observe(99)
		h.SetDeterministic()
		_ = c.Value() + g.Value()
	})
	if n != 0 {
		t.Fatalf("disabled metrics path allocated %.1f times per run, want 0", n)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("laoc_x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("laoc_x_total"); c2 != c {
		t.Fatalf("same (name, labels) returned a different cell")
	}
	g := r.Gauge("laoc_x_depth")
	g.Add(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

// TestLabelOrderCanonical checks that label order at the call site does
// not split cells: (a=1, b=2) and (b=2, a=1) are the same cell.
func TestLabelOrderCanonical(t *testing.T) {
	r := New()
	c1 := r.Counter("laoc_l_total", L("a", "1"), L("b", "2"))
	c2 := r.Counter("laoc_l_total", L("b", "2"), L("a", "1"))
	if c1 != c2 {
		t.Fatalf("label permutations produced distinct cells")
	}
	c3 := r.Counter("laoc_l_total", L("a", "1"), L("b", "3"))
	if c3 == c1 {
		t.Fatalf("distinct label values shared a cell")
	}
}

func TestKindClashPanics(t *testing.T) {
	r := New()
	r.Counter("laoc_clash")
	defer func() {
		if recover() == nil {
			t.Fatalf("requesting a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("laoc_clash")
}

func TestCounterFunc(t *testing.T) {
	r := New()
	v := int64(42)
	r.CounterFunc("laoc_fn_total", func() int64 { return v })
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 42 {
		t.Fatalf("snapshot = %+v, want one counter valued 42", s.Counters)
	}
	v = 43
	if s2 := r.Snapshot(); s2.Counters[0].Value != 43 {
		t.Fatalf("CounterFunc not re-read at snapshot time: %d", s2.Counters[0].Value)
	}
}

// TestSnapshotDeterministic pins the ordering contract: cells are
// sorted by (name, labels) regardless of registration order, and two
// renders of the same state are byte-identical.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []int) *Registry {
		r := New()
		cells := []func(){
			func() { r.Counter("laoc_b_total", L("pass", "z")).Add(2) },
			func() { r.Counter("laoc_b_total", L("pass", "a")).Add(1) },
			func() { r.Counter("laoc_a_total").Add(3) },
			func() { r.Gauge("laoc_g").Add(9) },
			func() { r.Histogram("laoc_h_ns").Observe(17) },
		}
		for _, i := range order {
			cells[i]()
		}
		return r
	}
	r1 := build([]int{0, 1, 2, 3, 4})
	r2 := build([]int{4, 3, 2, 1, 0})

	s1, s2 := r1.Snapshot(), r2.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ by registration order:\n%+v\n%+v", s1, s2)
	}
	var b1, b2 bytes.Buffer
	if err := writePrometheus(&b1, s1); err != nil {
		t.Fatal(err)
	}
	if err := writePrometheus(&b2, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("prometheus renders differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	wantNames := []string{"laoc_a_total", "laoc_b_total", "laoc_b_total"}
	for i, c := range s1.Counters {
		if c.Name != wantNames[i] {
			t.Fatalf("counter[%d] = %s, want %s", i, c.Name, wantNames[i])
		}
	}
	if s1.Counters[1].Labels[0].Value != "a" || s1.Counters[2].Labels[0].Value != "z" {
		t.Fatalf("label cells not sorted: %+v", s1.Counters[1:])
	}
}
