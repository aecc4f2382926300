package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"outofssa/internal/obs"
)

// FileSnapshot is the JSON snapshot schema — what `ssabench
// -metrics-out` and laocd's /metrics.json write, and what
// `laocdrive -assert` reads.
// The schema is append-only like the JSONL trace schema: consumers must
// tolerate new keys. Everything is emitted in sorted order and carries
// no timestamps, so the deterministic subset (counters, deterministic
// histograms) of two identical serial runs is byte-identical.
type FileSnapshot struct {
	Schema     string          `json:"schema"`
	Host       obs.Host        `json:"host"`
	Counters   []FileCounter   `json:"counters,omitempty"`
	Gauges     []FileGauge     `json:"gauges,omitempty"`
	Histograms []FileHistogram `json:"histograms,omitempty"`
}

// SchemaV1 identifies the current snapshot schema.
const SchemaV1 = "laoc-metrics-v1"

// FileCounter is one counter cell in the file schema.
type FileCounter struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// FileGauge is one gauge cell in the file schema.
type FileGauge struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// FileHistogram is one histogram cell in the file schema, with
// precomputed quantile estimates for human consumption (the buckets
// remain the ground truth).
type FileHistogram struct {
	Name          string            `json:"name"`
	Labels        map[string]string `json:"labels,omitempty"`
	Deterministic bool              `json:"deterministic,omitempty"`
	Count         int64             `json:"count"`
	Sum           int64             `json:"sum"`
	Min           int64             `json:"min"`
	Max           int64             `json:"max"`
	P50           int64             `json:"p50"`
	P90           int64             `json:"p90"`
	P99           int64             `json:"p99"`
	Buckets       []FileBucket      `json:"buckets,omitempty"`
}

// FileBucket is one non-empty bucket: inclusive upper bound and
// non-cumulative count.
type FileBucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

func labelMap(ls []Label) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// file converts an in-memory snapshot into the file schema, stamping
// the host identity.
func (s *Snapshot) file(host obs.Host) *FileSnapshot {
	fs := &FileSnapshot{Schema: SchemaV1, Host: host}
	for _, c := range s.Counters {
		fs.Counters = append(fs.Counters, FileCounter{Name: c.Name, Labels: labelMap(c.Labels), Value: c.Value})
	}
	for _, g := range s.Gauges {
		fs.Gauges = append(fs.Gauges, FileGauge{Name: g.Name, Labels: labelMap(g.Labels), Value: g.Value})
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		fh := FileHistogram{
			Name: h.Name, Labels: labelMap(h.Labels), Deterministic: h.Deterministic,
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			P50: h.quantile(0.50), P90: h.quantile(0.90), P99: h.quantile(0.99),
		}
		for _, b := range h.Buckets {
			fh.Buckets = append(fh.Buckets, FileBucket{Le: b.Le, Count: b.Count})
		}
		fs.Histograms = append(fs.Histograms, fh)
	}
	return fs
}

// WriteJSON writes the snapshot in the file schema, indented for
// readability.
func WriteJSON(w io.Writer, s *Snapshot, host obs.Host) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.file(host))
}

// DecodeFile reads a file-schema snapshot and validates its schema tag.
func DecodeFile(r io.Reader) (*FileSnapshot, error) {
	var fs FileSnapshot
	if err := json.NewDecoder(r).Decode(&fs); err != nil {
		return nil, fmt.Errorf("metrics snapshot: %w", err)
	}
	if fs.Schema != SchemaV1 {
		return nil, fmt.Errorf("metrics snapshot: schema %q, want %q", fs.Schema, SchemaV1)
	}
	return &fs, nil
}
