// Client mode: drive a running laocd instance with generated work.
// The same package that builds the paper's benchmark suites also
// builds the request stream that exercises the daemon — the chaos test
// and cmd/laocdrive both speak through Drive, so the load generator
// and the service agree on exactly one wire format.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"outofssa/internal/ir"
	"outofssa/internal/testprog"
)

// SynthFuncs generates n distinct random structured functions from the
// seed — the synthetic request population for load and chaos runs.
// Seeds are consecutive, so the same (n, seed) reproduces the same
// stream.
func SynthFuncs(n int, seed int64) []*ir.Func {
	out := make([]*ir.Func, n)
	for i := range out {
		out[i] = testprog.Rand(seed+int64(i), testprog.DefaultRandOptions())
	}
	return out
}

// SynthPool returns n functions drawn from a pool of distinct random
// functions generated from seed: result[i] is pool[i%distinct], with
// the *ir.Func pointers shared across repeats. distinct <= 0 or
// >= n degenerates to SynthFuncs(n, seed). A pool smaller than the
// request count is the cache-scaling workload shape: the stream is
// long but its distinct content is bounded, so an LRU-capped service
// must answer most of it from cache with O(distinct) residency.
func SynthPool(n, distinct int, seed int64) []*ir.Func {
	if distinct <= 0 || distinct >= n {
		return SynthFuncs(n, seed)
	}
	pool := SynthFuncs(distinct, seed)
	out := make([]*ir.Func, n)
	for i := range out {
		out[i] = pool[i%distinct]
	}
	return out
}

// PooledRequests builds n raw-b1 ClientRequests over funcs (cycling
// when n > len(funcs)), marshalling each distinct function exactly
// once and sharing the encoded body across repeats — the request
// stream for load tests where the marshal cost of the driver must not
// dominate the service under test. Raw bodies carry no deadline, so
// the server's default applies.
func PooledRequests(funcs []*ir.Func, n int) ([]ClientRequest, error) {
	docs := make(map[*ir.Func][]byte, len(funcs))
	reqs := make([]ClientRequest, n)
	for i := 0; i < n; i++ {
		f := funcs[i%len(funcs)]
		doc, ok := docs[f]
		if !ok {
			var err error
			doc, err = ir.MarshalBinary(f)
			if err != nil {
				return nil, err
			}
			docs[f] = doc
		}
		reqs[i] = ClientRequest{RawBody: doc}
	}
	return reqs, nil
}

// ClientRequest is one /compile body the driver will POST. The fields
// mirror the server's wire schema; zero values are omitted. When
// RawBody is set the request bypasses JSON entirely — Drive posts the
// b1 bytes verbatim (the server sniffs the magic), so deadline and
// debug riders cannot travel with it.
type ClientRequest struct {
	LAI        string          `json:"lai,omitempty"`
	IR         json.RawMessage `json:"ir,omitempty"`
	DeadlineMS int             `json:"deadline_ms,omitempty"`
	Debug      *ClientDebug    `json:"debug,omitempty"`
	RawBody    []byte          `json:"-"`
}

// ClientDebug is the chaos seam block (server must run -allow-debug).
type ClientDebug struct {
	SleepMS   int    `json:"sleep_ms,omitempty"`
	PanicPass string `json:"panic_pass,omitempty"`
}

// V1Request builds an IR ClientRequest carrying the v1 JSON schema.
func V1Request(f *ir.Func, deadlineMS int) (ClientRequest, error) {
	doc, err := ir.MarshalV1(f)
	if err != nil {
		return ClientRequest{}, err
	}
	return ClientRequest{IR: doc, DeadlineMS: deadlineMS}, nil
}

// B1RawRequest builds a whole-body binary request: the POST body is
// the b1 document itself, no JSON envelope.
func B1RawRequest(f *ir.Func) (ClientRequest, error) {
	doc, err := ir.MarshalBinary(f)
	if err != nil {
		return ClientRequest{}, err
	}
	return ClientRequest{RawBody: doc}, nil
}

// DriveOptions configures Drive.
type DriveOptions struct {
	// Concurrency is the number of parallel posting goroutines
	// (default 8).
	Concurrency int
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
}

// DriveReport tallies one Drive run by response disposition.
type DriveReport struct {
	Sent     int `json:"sent"`
	OK       int `json:"ok"`
	FellBack int `json:"fell_back"`
	Degraded int `json:"degraded"`
	Cached   int `json:"cached"`
	Shed     int `json:"shed"`     // 429
	Deadline int `json:"deadline"` // 504
	Rejected int `json:"rejected"` // 400/422 typed rejections
	Draining int `json:"draining"` // 503
	// Transport counts requests that failed below HTTP (connection
	// refused, EOF) — in a healthy run it must be zero; a crashed
	// daemon shows up here.
	Transport int `json:"transport"`
	// Other counts unexpected status codes; must be zero.
	Other int `json:"other"`
}

func (r *DriveReport) String() string {
	b, _ := json.Marshal(r)
	return string(b)
}

// Drive POSTs every request against baseURL/compile with bounded
// concurrency and classifies the responses. Per-request outcomes land
// in outcomes (when non-nil, len(reqs)): the HTTP status, or -1 for a
// transport failure; outcome bodies land in outputs (when non-nil) for
// 200s so callers can verify payload correctness.
func Drive(baseURL string, reqs []ClientRequest, opt DriveOptions, outcomes []int, outputs []string) DriveReport {
	workers := opt.Concurrency
	if workers <= 0 {
		workers = 8
	}
	client := opt.Client
	if client == nil {
		client = http.DefaultClient
	}
	var rep DriveReport
	var ok, fellBack, degraded, cached, shed, deadline, rejected, draining, transport, other atomic.Int64

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				body, ctype := reqs[i].RawBody, "application/octet-stream"
				if body == nil {
					var err error
					body, err = json.Marshal(&reqs[i])
					if err != nil {
						transport.Add(1)
						if outcomes != nil {
							outcomes[i] = -1
						}
						continue
					}
					ctype = "application/json"
				}
				hr, err := client.Post(baseURL+"/compile", ctype, bytes.NewReader(body))
				if err != nil {
					transport.Add(1)
					if outcomes != nil {
						outcomes[i] = -1
					}
					continue
				}
				if outcomes != nil {
					outcomes[i] = hr.StatusCode
				}
				switch hr.StatusCode {
				case http.StatusOK:
					var resp struct {
						Output   string `json:"output"`
						FellBack bool   `json:"fell_back"`
						Degraded bool   `json:"degraded"`
						Cached   bool   `json:"cached"`
					}
					if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
						transport.Add(1)
						if outcomes != nil {
							outcomes[i] = -1
						}
						hr.Body.Close()
						continue
					}
					ok.Add(1)
					if resp.FellBack {
						fellBack.Add(1)
					}
					if resp.Degraded {
						degraded.Add(1)
					}
					if resp.Cached {
						cached.Add(1)
					}
					if outputs != nil {
						outputs[i] = resp.Output
					}
				case http.StatusTooManyRequests:
					shed.Add(1)
				case http.StatusGatewayTimeout:
					deadline.Add(1)
				case http.StatusBadRequest, http.StatusUnprocessableEntity:
					rejected.Add(1)
				case http.StatusServiceUnavailable:
					draining.Add(1)
				default:
					other.Add(1)
				}
				hr.Body.Close()
			}
		}()
	}
	wg.Wait()
	rep = DriveReport{
		Sent:      len(reqs),
		OK:        int(ok.Load()),
		FellBack:  int(fellBack.Load()),
		Degraded:  int(degraded.Load()),
		Cached:    int(cached.Load()),
		Shed:      int(shed.Load()),
		Deadline:  int(deadline.Load()),
		Rejected:  int(rejected.Load()),
		Draining:  int(draining.Load()),
		Transport: int(transport.Load()),
		Other:     int(other.Load()),
	}
	return rep
}

// MixedRequests builds the smoke/chaos stream over funcs: mostly valid
// IR compiles alternating between the two wire schemas, plus
// deterministic sprinkles keyed on the request index — every
// malformedEvery-th request is an unparseable body, every
// deadlineEvery-th carries a 1ms deadline with a debug sleep (forced
// 504), and every faultEvery-th carries an injected pass panic
// (faultEvery=100 faults 1% of the stream). Any knob ≤ 0 disables that
// sprinkle. Debug-carrying requests require the server to run with
// -allow-debug.
//
// The valid compiles send v1 JSON at even indexes and a raw binary b1
// body at odd ones, so one drive exercises both decoders. Sprinkle
// requests stay on JSON shapes (debug riders cannot travel in a raw
// body).
func MixedRequests(funcs []*ir.Func, deadlineMS, faultEvery, malformedEvery, deadlineEvery int) ([]ClientRequest, error) {
	reqs := make([]ClientRequest, len(funcs))
	for i, f := range funcs {
		var r ClientRequest
		var err error
		switch {
		case malformedEvery > 0 && i%malformedEvery == 1:
			r = ClientRequest{LAI: ".func broken\n"}
		case deadlineEvery > 0 && i%deadlineEvery == 2:
			r = ClientRequest{
				LAI:        fmt.Sprintf(".func sleepy%d\n.input A:R0\nentry:\n    add B, A, A\n    ret B\n.endfunc\n", i),
				DeadlineMS: 1,
				Debug:      &ClientDebug{SleepMS: 100},
			}
		case faultEvery > 0 && i%faultEvery == 3%faultEvery:
			r, err = V1Request(f, deadlineMS)
			r.Debug = &ClientDebug{PanicPass: "pinning-sp"}
		case i%2 == 0:
			r, err = V1Request(f, deadlineMS)
		default:
			r, err = B1RawRequest(f)
		}
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}
