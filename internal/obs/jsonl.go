package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// JSONL is a Tracer writing one JSON object per line, suitable for
// machine diffing of two pipeline runs (jq, simple scripts). Three
// record types share the stream, discriminated by the "type" key:
//
//	{"type":"run_start","fn":...,"config":...,"ir":{...}}
//	{"type":"pass","fn":...,"config":...,"pass":...,"seq":N,
//	 "wall_ns":N,"alloc_bytes":N,"mallocs":N,
//	 "before":{...},"after":{...},"counters":{...},"err":...}
//	{"type":"run_end","fn":...,"config":...,"passes":N,
//	 "wall_ns":N,"ir":{...}}
//
// The "ir", "before" and "after" objects are IRStat: moves,
// weighted_moves, instrs, phis, pins, blocks, values. Counter keys are
// "<pass>.<Field>" paths into the pass's stats struct. "err", present
// only on failure, is the pass's error string (pass error, contained
// panic, or checked-mode verifier violation); a run that died shows a
// final "pass" record with "err" and no "run_end". The schema is
// append-only: consumers must tolerate new keys. JSONL is safe for
// concurrent use.
type JSONL struct {
	mu     sync.Mutex
	enc    *json.Encoder
	passes int
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{enc: json.NewEncoder(w)} }

type jsonlRun struct {
	Type   string `json:"type"`
	Func   string `json:"fn"`
	Config string `json:"config,omitempty"`
	Passes int    `json:"passes,omitempty"`
	WallNS int64  `json:"wall_ns,omitempty"`
	IR     IRStat `json:"ir"`
}

type jsonlPass struct {
	Type string `json:"type"`
	*Event
	Counters map[string]int64 `json:"counters,omitempty"`
}

func (j *JSONL) RunStart(fn, config string, before IRStat) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.passes = 0
	j.enc.Encode(jsonlRun{Type: "run_start", Func: fn, Config: config, IR: before})
}

func (j *JSONL) PassEnd(ev *Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.passes++
	rec := jsonlPass{Type: "pass", Event: ev}
	if len(ev.Counters) > 0 {
		rec.Counters = make(map[string]int64, len(ev.Counters))
		for _, c := range ev.Counters {
			rec.Counters[ev.Pass+"."+c.Name] = c.Value
		}
	}
	j.enc.Encode(rec)
}

func (j *JSONL) RunEnd(fn, config string, after IRStat, wallNS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.enc.Encode(jsonlRun{Type: "run_end", Func: fn, Config: config,
		Passes: j.passes, WallNS: wallNS, IR: after})
}
