// The per-corruption-class circuit breaker. A pipeline bug is not
// random noise: the same pass fails the verifier again and again, and
// every such request burns a full pipeline run plus a fallback
// translation plus an ir.Exec cross-check before producing naive-grade
// output anyway. The breaker notices the pattern — repeated verifier
// failures attributed to one class (the failing pass name) inside a
// sliding window — and trips that class open: while any class is open,
// requests skip straight to the naive-translation-only configuration,
// which does not run the suspect pass at all. After a cooldown the
// class half-opens and exactly one probe request is let through the
// full pipeline; success closes the class, failure re-opens it for
// another cooldown.
//
// Failure counting is windowed, not consecutive: a pass that fails one
// request in a hundred would never trip a consecutive counter, but a
// hundred such failures an hour are still a hundred wasted fallbacks.
package server

import (
	"sync"
	"time"
)

// breaker tracks failure classes. The zero value is unusable; use
// newBreaker. All methods are safe for concurrent use.
type breaker struct {
	mu        sync.Mutex
	threshold int           // failures within window that trip a class
	window    time.Duration // sliding failure-count window
	cooldown  time.Duration // open duration before half-opening
	now       func() time.Time
	classes   map[string]*breakerClass

	onTrip func(class string) // metrics hook, called outside the hot path
}

type breakerClass struct {
	open     bool
	openedAt time.Time
	probing  bool        // a half-open probe is in flight
	fails    []time.Time // failure times within window (closed state only)
}

func newBreaker(threshold int, window, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if window <= 0 {
		window = 30 * time.Second
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{
		threshold: threshold,
		window:    window,
		cooldown:  cooldown,
		now:       now,
		classes:   make(map[string]*breakerClass),
	}
}

// plan decides how the next request should run. Full pipeline when
// every class is closed; degraded (naive-translation-only) while any
// class is open; and when an open class has cooled down, exactly one
// caller gets it as a probe — it runs the full pipeline and must
// report the outcome via probeResult. probeClass is empty unless this
// caller won the probe.
func (b *breaker) plan() (degraded bool, probeClass string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	for name, c := range b.classes {
		if !c.open {
			continue
		}
		if probeClass == "" && !c.probing && now.Sub(c.openedAt) >= b.cooldown {
			c.probing = true
			probeClass = name
			continue
		}
		degraded = true
	}
	if probeClass != "" {
		// The probe itself runs the full pipeline; concurrent requests
		// stay degraded until it reports back.
		return false, probeClass
	}
	return degraded, ""
}

// anyOpen reports whether any class is open, probing or not. Unlike
// plan it has no side effect, so the handler can use it to pick the
// result-cache key of a hit without taking (and then never reporting)
// the half-open probe; the probe is handed out only by plan, to a
// request that will compile.
func (b *breaker) anyOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.classes {
		if c.open {
			return true
		}
	}
	return false
}

// fail records a verifier/pass failure attributed to class and trips
// the class when the windowed count reaches the threshold. Returns
// whether this call tripped the class.
func (b *breaker) fail(class string) bool {
	b.mu.Lock()
	c := b.classes[class]
	if c == nil {
		c = &breakerClass{}
		b.classes[class] = c
	}
	if c.open {
		b.mu.Unlock()
		return false
	}
	now := b.now()
	cut := now.Add(-b.window)
	keep := c.fails[:0]
	for _, t := range c.fails {
		if t.After(cut) {
			keep = append(keep, t)
		}
	}
	c.fails = append(keep, now)
	tripped := len(c.fails) >= b.threshold
	if tripped {
		c.open = true
		c.openedAt = now
		c.fails = nil
	}
	onTrip := b.onTrip
	b.mu.Unlock()
	if tripped && onTrip != nil {
		onTrip(class)
	}
	return tripped
}

// probeResult reports the outcome of the half-open probe for class:
// success closes it, failure re-opens it for another cooldown.
func (b *breaker) probeResult(class string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.classes[class]
	if c == nil || !c.open {
		return
	}
	c.probing = false
	if ok {
		c.open = false
		c.fails = nil
	} else {
		c.openedAt = b.now()
	}
}

// probeAbort ends a probe without a verdict (the probe request died on
// its own deadline): the class stays open with its original open time,
// so the next plan call can hand out a fresh probe immediately.
func (b *breaker) probeAbort(class string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.classes[class]; c != nil {
		c.probing = false
	}
}

// openClasses lists the currently open classes, sorted order not
// guaranteed; /readyz reports them.
func (b *breaker) openClasses() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for name, c := range b.classes {
		if c.open {
			out = append(out, name)
		}
	}
	return out
}
