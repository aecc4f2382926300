package metrics

import "sync/atomic"

// Counter is a monotonically increasing atomic cell. The nil Counter
// (handed out by a nil registry) is a no-op on every method — the
// disabled path performs one predictable branch and allocates nothing.
type Counter struct {
	v int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		atomic.AddInt64(&c.v, 1)
	}
}

// Add adds n. Negative deltas are a programming error but are applied
// as-is; counters are "monotone by convention", not enforced, because
// enforcement would put a branch on the hot path.
func (c *Counter) Add(n int64) {
	if c != nil {
		atomic.AddInt64(&c.v, n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an atomic instantaneous value (queue depth, jobs in flight).
// Nil-receiver contract as Counter.
type Gauge struct {
	v int64
}

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) {
	if g != nil {
		atomic.AddInt64(&g.v, n)
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}
