package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Summary is a Tracer rendering one human-readable per-pass table per
// run: wall time, allocation volume, and the move/instruction/φ/pin
// deltas each pass caused. Attach it with laoc -trace.
type Summary struct {
	w io.Writer
	// Verbose additionally prints the pass-specific counters under each
	// run's table.
	Verbose bool

	events []*Event
}

// NewSummary returns a summary sink writing to w.
func NewSummary(w io.Writer) *Summary { return &Summary{w: w} }

func (s *Summary) RunStart(fn, config string, before IRStat) { s.events = s.events[:0] }

func (s *Summary) PassStart(fn, config, pass string) {}

func (s *Summary) PassEnd(ev *Event) { s.events = append(s.events, ev) }

func (s *Summary) RunEnd(fn, config string, after IRStat, wallNS int64) {
	label := fn
	if config != "" {
		label += " [" + config + "]"
	}
	fmt.Fprintf(s.w, "; trace %s: %d passes, %v total\n",
		label, len(s.events), time.Duration(wallNS).Round(time.Microsecond))
	fmt.Fprintf(s.w, ";   %-18s %10s %10s %7s %7s %7s %7s %6s %6s\n",
		"pass", "wall", "alloc", "moves", "Δmoves", "instrs", "Δinstr", "phis", "pins")
	for _, ev := range s.events {
		fmt.Fprintf(s.w, ";   %-18s %10v %10s %7d %+7d %7d %+7d %6d %6d\n",
			ev.Pass,
			time.Duration(ev.WallNS).Round(time.Microsecond),
			sizeOf(ev.AllocBytes),
			ev.After.Moves, ev.After.Moves-ev.Before.Moves,
			ev.After.Instrs, ev.After.Instrs-ev.Before.Instrs,
			ev.After.Phis, ev.After.Pins)
	}
	if s.Verbose {
		for _, ev := range s.events {
			cs := append([]Counter(nil), ev.Counters...)
			sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
			for _, c := range cs {
				fmt.Fprintf(s.w, ";     %-40s %10d\n", ev.Pass+"."+c.Name, c.Value)
			}
		}
	}
}

// sizeOf renders a byte count compactly (B/kB/MB).
func sizeOf(n uint64) string {
	switch {
	case n >= 10*1024*1024:
		return fmt.Sprintf("%dMB", n/(1024*1024))
	case n >= 10*1024:
		return fmt.Sprintf("%dkB", n/1024)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
