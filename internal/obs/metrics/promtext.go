package metrics

import (
	"fmt"
	"io"
	"strings"
)

// writePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` (and optional `# HELP`) header
// per metric family, counters and gauges as single samples, histograms
// as cumulative `_bucket{le=...}` series plus `_sum` and `_count`. The
// output is fully deterministic — the snapshot is sorted and bucket
// bounds are a pure function of the layout — which is what the golden
// test in promtext_test.go pins.
func writePrometheus(w io.Writer, s *Snapshot) error {
	pw := &errWriter{w: w}
	seen := map[string]bool{}
	header := func(name, kind string) {
		if seen[name] {
			return
		}
		seen[name] = true
		if h := s.Help[name]; h != "" {
			fmt.Fprintf(pw, "# HELP %s %s\n", name, escapeHelp(h))
		}
		fmt.Fprintf(pw, "# TYPE %s %s\n", name, kind)
	}

	for _, c := range s.Counters {
		header(c.Name, "counter")
		fmt.Fprintf(pw, "%s%s %d\n", c.Name, renderLabels(c.Labels, ""), c.Value)
	}
	for _, g := range s.Gauges {
		header(g.Name, "gauge")
		fmt.Fprintf(pw, "%s%s %d\n", g.Name, renderLabels(g.Labels, ""), g.Value)
	}
	for _, h := range s.Histograms {
		header(h.Name, "histogram")
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(pw, "%s_bucket%s %d\n",
				h.Name, renderLabels(h.Labels, fmt.Sprintf("%d", b.Le)), cum)
		}
		fmt.Fprintf(pw, "%s_bucket%s %d\n", h.Name, renderLabels(h.Labels, "+Inf"), h.Count)
		fmt.Fprintf(pw, "%s_sum%s %d\n", h.Name, renderLabels(h.Labels, ""), h.Sum)
		fmt.Fprintf(pw, "%s_count%s %d\n", h.Name, renderLabels(h.Labels, ""), h.Count)
	}
	return pw.err
}

// renderLabels renders `{k="v",...}` with le appended last when
// non-empty (the histogram bucket dimension), or "" when there is
// nothing to render.
func renderLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// errWriter latches the first write error so the render loop stays
// straight-line.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}
