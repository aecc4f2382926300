package server

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives the breaker deterministically. It is safe for
// concurrent use, so a running server can read it while a test
// advances it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }
func testBreaker(clk *fakeClock, threshold int) *breaker {
	return newBreaker(threshold, 10*time.Second, 2*time.Second, clk.now)
}

func TestBreakerTripsOnWindowedFailures(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 3)
	var trips []string
	b.onTrip = func(class string) { trips = append(trips, class) }

	// Non-consecutive failures inside the window still count.
	b.fail("pinning-phi")
	clk.advance(time.Second)
	if d, _ := b.plan(); d {
		t.Fatal("one failure must not degrade")
	}
	b.fail("pinning-phi")
	clk.advance(time.Second)
	if tripped := b.fail("pinning-phi"); !tripped {
		t.Fatal("third windowed failure must trip")
	}
	if len(trips) != 1 || trips[0] != "pinning-phi" {
		t.Fatalf("trips = %v", trips)
	}
	if d, probe := b.plan(); !d || probe != "" {
		t.Fatalf("open class must degrade (degraded=%v probe=%q)", d, probe)
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 3)
	b.fail("x")
	b.fail("x")
	clk.advance(11 * time.Second) // past the 10s window
	if b.fail("x") {
		t.Fatal("stale failures must have aged out of the window")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	b.fail("out-of-pinned-ssa")

	// Before cooldown: degraded, no probe.
	if d, probe := b.plan(); !d || probe != "" {
		t.Fatalf("pre-cooldown: degraded=%v probe=%q", d, probe)
	}
	clk.advance(3 * time.Second)
	// After cooldown: exactly one caller wins the probe and runs full.
	d, probe := b.plan()
	if d || probe != "out-of-pinned-ssa" {
		t.Fatalf("post-cooldown: degraded=%v probe=%q", d, probe)
	}
	// Concurrent requests stay degraded while the probe is out.
	if d, p2 := b.plan(); !d || p2 != "" {
		t.Fatalf("during probe: degraded=%v probe=%q", d, p2)
	}

	// Failed probe re-opens for another cooldown.
	b.probeResult("out-of-pinned-ssa", false)
	if d, probe := b.plan(); !d || probe != "" {
		t.Fatalf("after failed probe: degraded=%v probe=%q", d, probe)
	}
	clk.advance(3 * time.Second)
	if _, probe := b.plan(); probe != "out-of-pinned-ssa" {
		t.Fatal("want a fresh probe after the second cooldown")
	}
	// Successful probe closes the class.
	b.probeResult("out-of-pinned-ssa", true)
	if d, probe := b.plan(); d || probe != "" {
		t.Fatalf("after successful probe: degraded=%v probe=%q", d, probe)
	}
	if open := b.openClasses(); len(open) != 0 {
		t.Fatalf("openClasses = %v, want none", open)
	}
}

func TestBreakerProbeAbort(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	b.fail("x")
	clk.advance(3 * time.Second)
	if _, probe := b.plan(); probe != "x" {
		t.Fatal("want probe")
	}
	b.probeAbort("x")
	// No verdict: still open, but a fresh probe is available at once.
	if _, probe := b.plan(); probe != "x" {
		t.Fatal("want probe re-issued after abort")
	}
}

func TestBreakerClassesIndependent(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 2)
	b.fail("a")
	b.fail("a")
	b.fail("b")
	open := b.openClasses()
	if len(open) != 1 || open[0] != "a" {
		t.Fatalf("openClasses = %v, want [a]", open)
	}
}

// TestBreakerAnyOpenTakesNoProbe pins the handler's read: anyOpen
// reports an open class, cooled down or not, and never takes the
// half-open probe that plan hands out.
func TestBreakerAnyOpenTakesNoProbe(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1)
	if b.anyOpen() {
		t.Fatal("no class has failed yet")
	}
	b.fail("x")
	clk.advance(3 * time.Second)
	for i := 0; i < 3; i++ {
		if !b.anyOpen() {
			t.Fatal("a cooled-down class is still open")
		}
	}
	if d, probe := b.plan(); d || probe != "x" {
		t.Fatalf("anyOpen took the probe: degraded=%v probe=%q", d, probe)
	}
	if !b.anyOpen() {
		t.Fatal("a probing class is still open")
	}
	b.probeResult("x", true)
	if b.anyOpen() {
		t.Fatal("a successful probe closes the class")
	}
}
