// Package server is the compilation service behind cmd/laocd: HTTP in,
// translated LAI out, with the paper's correctness machinery wrapped in
// the robustness layer a long-running daemon needs. One request = one
// function compiled by pipeline.Run in checked+fallback mode, so a
// malformed or hostile input costs at most its own request: parse
// errors are 400s, and so is input that SSA construction or the entry
// verification rejects (kind "invalid", e.g. pins that break the
// paper's Fig. 4 rules), which never feeds the breaker. Pass panics
// are contained and fall back to the naive translation, verifier
// rejections likewise, and everything else is bounded by a per-request
// deadline propagated into the pass runner.
//
// Around that core:
//
//   - Admission control. A bounded queue feeds a fixed worker pool;
//     when the queue is full the request is shed with a 429 instead of
//     queueing unboundedly (laocd_shed_total counts them).
//   - Deadlines. Every request carries a context deadline (default,
//     clamped by a maximum); the pass runner checks it between passes
//     and the fallback's ir.Exec oracle budget is derived from it.
//   - Circuit breaker. Repeated verifier failures attributed to one
//     corruption class (the failing pass) trip that class open; open
//     classes switch requests to naive-translation-only mode and
//     half-open probes decide recovery (see breaker.go).
//   - Result cache. Content hash → translated function with per-entry
//     checksums; poisoned entries are detected on read, evicted and
//     recompiled, never served (see cache.go). The handler answers a
//     verified hit itself, before decode and admission, so a hit never
//     takes a queue slot. Identical concurrent misses are deduplicated
//     by a singleflight layer whose leader alone decodes and compiles.
//   - Drain. Drain stops admission (503) and waits for in-flight work,
//     so SIGTERM never abandons an accepted request.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"outofssa/internal/cachestore"
	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
)

// Config parameterizes a Server. The zero value gets sensible
// defaults from New.
type Config struct {
	// Workers is the compile worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the admission queue (default 64); a full queue
	// sheds with 429.
	QueueDepth int
	// DefaultDeadline applies when a request names none; MaxDeadline
	// clamps what a request may ask for (defaults 2s / 10s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Experiment is the pipeline preset requests compile under
	// (default pipeline.ExpLphiABIC, the paper's reference column).
	Experiment string
	// CacheEntries bounds the result cache (default 1024).
	CacheEntries int
	// BreakerThreshold failures within BreakerWindow trip a corruption
	// class; BreakerCooldown is the open time before a half-open probe
	// (defaults 5 / 30s / 5s).
	BreakerThreshold int
	BreakerWindow    time.Duration
	BreakerCooldown  time.Duration
	// Metrics receives the laocd_* instruments (nil disables them).
	Metrics *metrics.Registry
	// AllowDebug enables the request "debug" block (injected sleeps
	// and pass panics) — test and chaos tooling only, never production.
	AllowDebug bool
	// MaxBodyBytes bounds a request body (default 4 MiB).
	MaxBodyBytes int64
	// CacheDir enables cache persistence: the result cache is
	// warm-started from the cachestore in this directory at New and
	// written behind on insert (empty disables persistence). StoreMaxBytes caps the
	// on-disk size (0 = cachestore default, negative = no compaction);
	// StoreFsync is the durability policy ("never", "interval",
	// "always"; empty = never).
	CacheDir      string
	StoreMaxBytes int64
	StoreFsync    string

	// now overrides the clock for breaker tests.
	now func() time.Time
}

// Server is the compilation service. Create with New, then Start, then
// serve Handler; Drain before exit.
type Server struct {
	conf     Config
	full     pipeline.Config // checked+fallback preset pipeline
	degraded pipeline.Config // naive-translation-only (breaker open)

	queue    chan *task
	wg       sync.WaitGroup
	pending  atomic.Int64 // accepted requests not yet responded
	draining atomic.Bool

	cache   *cache
	breaker *breaker
	store   *cachestore.Store // nil unless Config.CacheDir is set

	sfMu sync.Mutex
	sf   map[uint64]*call

	reg         *metrics.Registry
	requests    map[string]*metrics.Counter // laocd_requests_total by kind
	queueGauge  *metrics.Gauge
	inflight    *metrics.Gauge
	shed        *metrics.Counter
	deadlines   *metrics.Counter
	fallbacks   *metrics.Counter
	degradedCtr *metrics.Counter
	hits        *metrics.Counter
	misses      *metrics.Counter
	decodes     *metrics.Counter
	poison      *metrics.Counter
	panics      *metrics.Counter
	wall        *metrics.Histogram
}

// call is one singleflight slot: concurrent requests for the same
// content wait for the leader's outcome.
type call struct {
	done chan struct{}
	resp *compileResponse
	herr *httpError
}

// task is one accepted compile traveling from handler to worker.
type task struct {
	ctx      context.Context
	f        *ir.Func
	key      uint64 // content key without the degraded bit
	debug    *debugRequest
	deadline time.Duration
	resp     *compileResponse
	herr     *httpError
	done     chan struct{}
}

// New validates and defaults conf and builds the server (workers not
// yet running; call Start).
func New(conf Config) (*Server, error) {
	if conf.Workers <= 0 {
		conf.Workers = 4
	}
	if conf.QueueDepth <= 0 {
		conf.QueueDepth = 64
	}
	if conf.DefaultDeadline <= 0 {
		conf.DefaultDeadline = 2 * time.Second
	}
	if conf.MaxDeadline <= 0 {
		conf.MaxDeadline = 10 * time.Second
	}
	if conf.Experiment == "" {
		conf.Experiment = pipeline.ExpLphiABIC
	}
	if conf.MaxBodyBytes <= 0 {
		conf.MaxBodyBytes = 4 << 20
	}
	full, err := pipeline.Preset(conf.Experiment)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	full.Verify = true
	full.Fallback = true
	reg := conf.Metrics
	s := &Server{
		conf: conf,
		full: full,
		degraded: pipeline.Config{
			NaiveOut: true, NaiveABI: true,
			Verify: true, Fallback: true,
		},
		queue:   make(chan *task, conf.QueueDepth),
		cache:   newCache(conf.CacheEntries),
		breaker: newBreaker(conf.BreakerThreshold, conf.BreakerWindow, conf.BreakerCooldown, conf.now),
		sf:      make(map[uint64]*call),

		reg:         reg,
		requests:    make(map[string]*metrics.Counter, len(requestKinds)),
		queueGauge:  reg.Gauge(MetricQueueDepth),
		inflight:    reg.Gauge(MetricInflight),
		shed:        reg.Counter(MetricShed),
		deadlines:   reg.Counter(MetricDeadline),
		fallbacks:   reg.Counter(MetricFallbacks),
		degradedCtr: reg.Counter(MetricDegraded),
		hits:        reg.Counter(MetricCacheHits),
		misses:      reg.Counter(MetricCacheMisses),
		decodes:     reg.Counter(MetricDecodeMisses),
		poison:      reg.Counter(MetricCachePoison),
		panics:      reg.Counter(MetricWorkerPanics),
		wall:        reg.Histogram(MetricRequestWallNS),
	}
	for _, kind := range requestKinds {
		s.requests[kind] = reg.Counter(MetricRequests, metrics.L("kind", kind))
	}
	if reg != nil {
		registerHelp(reg)
		s.breaker.onTrip = func(class string) {
			reg.Counter(MetricBreakerTrips, metrics.L("class", class)).Inc()
		}
	}
	store, err := s.openStore()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.store = store
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	s.wg.Add(s.conf.Workers)
	for i := 0; i < s.conf.Workers; i++ {
		go func() {
			defer s.wg.Done()
			for t := range s.queue {
				s.runTask(t)
			}
		}()
	}
}

// Drain stops admission (new requests get 503), waits until every
// accepted request has been answered, then stops the workers. It
// returns ctx.Err() if the context expires first; the workers are left
// running in that case so in-flight requests still complete.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for s.pending.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	// pending==0 with draining set means no handler can be between
	// admission and response, so nothing will ever send again.
	close(s.queue)
	s.wg.Wait()
	// Every accepted request's write-behind Put has been enqueued by
	// now; Close flushes them to disk before returning.
	if s.store != nil {
		s.store.Close()
	}
	return nil
}

// Handler returns the service mux: /compile, /healthz, /readyz, plus
// the metrics handler families (/metrics, /metrics.json,
// /debug/pprof/*).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	mux.Handle("/metrics", metrics.Handler(s.reg))
	mux.Handle("/metrics.json", metrics.Handler(s.reg))
	mux.Handle("/debug/pprof/", metrics.Handler(s.reg))
	return mux
}

// --- request/response wire types -----------------------------------

// compileRequest is the /compile body: exactly one of LAI (a single
// function in LAI assembly) or IR (a laoc-ir-v1 JSON document) must be
// set. A request whose whole body starts with the b1 magic skips JSON
// entirely — the body IS the IR, with deadline and debug at their
// defaults; such a client bounds its wait by closing the connection,
// which cancels the request context. The response is always the JSON
// compileResponse (rendered LAI text plus counters), whatever the
// request schema.
type compileRequest struct {
	LAI        string          `json:"lai,omitempty"`
	IR         json.RawMessage `json:"ir,omitempty"`
	DeadlineMS int             `json:"deadline_ms,omitempty"`
	Debug      *debugRequest   `json:"debug,omitempty"`
}

// debugRequest is the chaos seam, admitted only under
// Config.AllowDebug: SleepMS sleeps after every pass (deadline tests),
// PanicPass panics after the named pass (breaker/chaos tests).
type debugRequest struct {
	SleepMS   int    `json:"sleep_ms,omitempty"`
	PanicPass string `json:"panic_pass,omitempty"`
}

// compileResponse is the success body.
type compileResponse struct {
	Name     string `json:"name"`
	Output   string `json:"output"`
	Moves    int    `json:"moves"`
	Instrs   int    `json:"instrs"`
	FellBack bool   `json:"fell_back,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
}

// requestKinds are the outcome kinds that label laocd_requests_total:
// "ok" and every httpError kind.
var requestKinds = []string{"ok", "parse", "invalid", "shed", "deadline", "draining", "compile"}

// httpError is the typed failure a request can end in. Kind is stable
// (it labels laocd_requests_total) and maps to the status code.
type httpError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	status  int
}

func errParse(err error) *httpError {
	return &httpError{Kind: "parse", Message: err.Error(), status: http.StatusBadRequest}
}

// errInvalid answers input that decoded but is not legal pipeline
// input (a *pipeline.InputError): the client's error, not a pass's.
func errInvalid(err error) *httpError {
	return &httpError{Kind: "invalid", Message: err.Error(), status: http.StatusBadRequest}
}

func errShed() *httpError {
	return &httpError{Kind: "shed", Message: "queue full, retry later", status: http.StatusTooManyRequests}
}

func errDraining() *httpError {
	return &httpError{Kind: "draining", Message: "server draining", status: http.StatusServiceUnavailable}
}

func errDeadline(err error) *httpError {
	return &httpError{Kind: "deadline", Message: err.Error(), status: http.StatusGatewayTimeout}
}

func errCompile(err error) *httpError {
	return &httpError{Kind: "compile", Message: err.Error(), status: http.StatusUnprocessableEntity}
}

func (e *httpError) ctxClass() bool { return e.Kind == "deadline" }

// --- handlers ------------------------------------------------------

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	open := s.breaker.openClasses()
	body := struct {
		Ready       bool     `json:"ready"`
		Draining    bool     `json:"draining"`
		QueueDepth  int      `json:"queue_depth"`
		QueueCap    int      `json:"queue_cap"`
		Workers     int      `json:"workers"`
		OpenClasses []string `json:"open_classes,omitempty"`
	}{
		Ready:       !s.draining.Load(),
		Draining:    s.draining.Load(),
		QueueDepth:  len(s.queue),
		QueueCap:    cap(s.queue),
		Workers:     s.conf.Workers,
		OpenClasses: open,
	}
	w.Header().Set("Content-Type", "application/json")
	if !body.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.conf.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.finish(w, t0, nil, errParse(fmt.Errorf("request body: %w", err)))
		return
	}
	var req compileRequest
	if ir.IsBinary(body) {
		// Schema negotiation: a raw b1 body is the IR document itself.
		req.IR = body
	} else if err := json.Unmarshal(body, &req); err != nil {
		s.finish(w, t0, nil, errParse(fmt.Errorf("request body: %w", err)))
		return
	}
	if (req.LAI == "") == (len(req.IR) == 0) {
		s.finish(w, t0, nil, errParse(errors.New("exactly one of \"lai\" or \"ir\" must be set")))
		return
	}
	if req.Debug != nil && !s.conf.AllowDebug {
		s.finish(w, t0, nil, errParse(errors.New("debug requests are disabled")))
		return
	}

	content, mode := req.IR, "ir"
	if req.LAI != "" {
		content, mode = []byte(req.LAI), "lai"
	}
	key := contentKey(mode, content, s.conf.Experiment)

	// Hits first: a verified hit is answered here, with no decode, no
	// singleflight slot and no queue slot. Debug requests bypass the
	// cache (their behavior is per-request, not content-determined).
	if req.Debug == nil {
		if resp := s.cached(key); resp != nil {
			s.finish(w, t0, resp, nil)
			return
		}
	}

	d := s.conf.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if d > s.conf.MaxDeadline {
		d = s.conf.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()

	if req.Debug != nil {
		resp, herr := s.compile(ctx, &req, content, key, d)
		s.finish(w, t0, resp, herr)
		return
	}
	// A miss deduplicates identical concurrent content: only the leader
	// decodes and compiles; followers wait for its answer.
	for attempt := 0; ; attempt++ {
		s.sfMu.Lock()
		if c, ok := s.sf[key]; ok {
			s.sfMu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				s.finish(w, t0, nil, errDeadline(ctx.Err()))
				return
			}
			// A leader that died on its own deadline says nothing about
			// this request's budget: retry once as our own leader.
			if c.herr != nil && c.herr.ctxClass() && attempt == 0 {
				continue
			}
			s.finish(w, t0, c.resp, c.herr)
			return
		}
		c := &call{done: make(chan struct{})}
		s.sf[key] = c
		s.sfMu.Unlock()
		// Re-check: a twin may have finished between the handler's
		// lookup and taking the slot.
		if c.resp = s.cached(key); c.resp == nil {
			c.resp, c.herr = s.compile(ctx, &req, content, key, d)
		}
		s.sfMu.Lock()
		delete(s.sf, key)
		s.sfMu.Unlock()
		close(c.done)
		s.finish(w, t0, c.resp, c.herr)
		return
	}
}

// cached answers key from the result cache, or returns nil. The key
// follows the breaker's current mode, read without taking the
// half-open probe: only a request that compiles may take it, because
// only a compile reports the probe's verdict. A draining server
// answers nothing from the cache, so its requests get the 503 of
// admission. A poisoned entry is counted and evicted, and the request
// recompiles.
func (s *Server) cached(key uint64) *compileResponse {
	if s.draining.Load() {
		return nil
	}
	e, ok, poisoned := s.cache.get(resultKey(key, s.breaker.anyOpen()))
	if poisoned {
		s.poison.Inc()
	}
	if !ok {
		return nil
	}
	s.hits.Inc()
	return &compileResponse{Name: e.name, Output: string(e.code), Moves: e.moves,
		Instrs: e.instrs, FellBack: e.fellBack, Degraded: e.degraded, Cached: true}
}

// compile decodes the request content and queues it for a worker.
// Decoding stays in the handler: it is linear work bounded by
// MaxBodyBytes, and a malformed body must not occupy a queue slot.
func (s *Server) compile(ctx context.Context, req *compileRequest, content []byte, key uint64, d time.Duration) (*compileResponse, *httpError) {
	var f *ir.Func
	var err error
	if req.LAI != "" {
		f, err = lai.Parse(req.LAI)
	} else {
		f, err = ir.Unmarshal(content)
	}
	if err != nil {
		return nil, errParse(err)
	}
	s.decodes.Inc()
	return s.admit(ctx, f, key, req.Debug, d)
}

// admit runs admission control and waits for the worker: the bounded
// queue is the only buffer, and a full queue sheds immediately.
func (s *Server) admit(ctx context.Context, f *ir.Func, key uint64, debug *debugRequest, d time.Duration) (*compileResponse, *httpError) {
	// pending is incremented before the draining check so Drain's
	// "pending==0" means no handler is between admission and response.
	s.pending.Add(1)
	defer s.pending.Add(-1)
	if s.draining.Load() {
		return nil, errDraining()
	}
	t := &task{ctx: ctx, f: f, key: key, debug: debug, deadline: d, done: make(chan struct{})}
	select {
	case s.queue <- t:
		s.queueGauge.Inc()
	default:
		return nil, errShed()
	}
	select {
	case <-t.done:
		return t.resp, t.herr
	case <-ctx.Done():
		// The task stays queued; the worker that dequeues it sees the
		// dead context and drops it cheaply.
		return nil, errDeadline(ctx.Err())
	}
}

// finish writes the response and settles the per-request metrics in
// one place (kind label, shed/deadline counters, latency histogram).
func (s *Server) finish(w http.ResponseWriter, t0 time.Time, resp *compileResponse, herr *httpError) {
	kind := "ok"
	if herr != nil {
		kind = herr.Kind
	}
	s.requests[kind].Inc()
	switch kind {
	case "shed":
		s.shed.Inc()
	case "deadline":
		s.deadlines.Inc()
	}
	if resp != nil {
		if resp.FellBack {
			s.fallbacks.Inc()
		}
		if resp.Degraded {
			s.degradedCtr.Inc()
		}
	}
	s.wall.Observe(time.Since(t0).Nanoseconds())

	w.Header().Set("Content-Type", "application/json")
	if herr != nil {
		w.WriteHeader(herr.status)
		json.NewEncoder(w).Encode(struct {
			Error *httpError `json:"error"`
		}{herr})
		return
	}
	json.NewEncoder(w).Encode(resp)
}

// --- worker --------------------------------------------------------

// runTask compiles one task. The pipeline already contains pass panics;
// the worker's own recover is the last resort that keeps a bug in the
// server layer itself from killing the pool.
func (s *Server) runTask(t *task) {
	defer close(t.done)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			t.resp, t.herr = nil, errCompile(fmt.Errorf("internal panic: %v", r))
		}
	}()
	s.queueGauge.Dec()
	if err := t.ctx.Err(); err != nil {
		// Expired while queued: the handler already answered 504.
		t.herr = errDeadline(err)
		return
	}
	s.inflight.Inc()
	defer s.inflight.Dec()

	// The handler already missed the cache for this task, so the worker
	// always compiles: a request that wins the half-open probe here
	// always reports its verdict.
	degraded, probeClass := s.breaker.plan()
	if t.debug == nil {
		s.misses.Inc()
	}

	conf := s.full
	exp := s.conf.Experiment
	if degraded {
		conf = s.degraded
		exp = s.conf.Experiment + "/naive"
	}
	if t.debug != nil {
		conf.FaultHook = debugHook(t.ctx, t.debug)
	}
	res, err := pipeline.Run(t.f, conf,
		pipeline.WithExperiment(exp),
		pipeline.WithContext(t.ctx),
		pipeline.WithExecBudget(execBudget(t.deadline)),
		pipeline.WithMetrics(s.reg))

	// Breaker feedback: attribute failures to the failing pass. Context
	// cancellation and invalid input are the client's fault, not a
	// corruption class: they feed no class, and a probe they hold ends
	// without a verdict.
	failClass := ""
	if err != nil {
		var invalid *pipeline.InputError
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			t.herr = errDeadline(err)
		case errors.As(err, &invalid):
			t.herr = errInvalid(err)
		}
		if t.herr != nil {
			if probeClass != "" {
				s.breaker.probeAbort(probeClass)
			}
			return
		}
		failClass = passClass(err)
		s.breaker.fail(failClass)
	} else if res.FellBack {
		failClass = passClass(res.FallbackFrom)
		s.breaker.fail(failClass)
	}
	if probeClass != "" {
		ok := failClass != probeClass
		s.breaker.probeResult(probeClass, ok)
		if s.reg != nil {
			verdict := "ok"
			if !ok {
				verdict = "fail"
			}
			s.reg.Counter(MetricBreakerProbes, metrics.L("result", verdict)).Inc()
		}
	}
	if err != nil {
		t.herr = errCompile(err)
		return
	}

	code := t.f.String()
	t.resp = &compileResponse{Name: t.f.Name, Output: code, Moves: res.Moves,
		Instrs: res.Instrs, FellBack: res.FellBack, Degraded: degraded}
	if t.debug == nil {
		e := &cacheEntry{code: []byte(code), name: t.f.Name,
			moves: res.Moves, instrs: res.Instrs, fellBack: res.FellBack, degraded: degraded}
		ckey := resultKey(t.key, degraded)
		s.cache.put(ckey, e)
		s.persistResult(ckey, e)
	}
}

// passClass maps a pipeline failure to its corruption class: the name
// of the failing pass.
func passClass(err error) string {
	var pe *pipeline.PassError
	if errors.As(err, &pe) {
		return pe.Pass
	}
	return "internal"
}

// contentKey hashes the request content (mode, bytes, experiment) into
// the singleflight/cache key space.
func contentKey(mode string, content []byte, exp string) uint64 {
	return fnvSum([]byte(mode), []byte{0}, content, []byte{0}, []byte(exp))
}

// resultKey namespaces the content key by compilation mode: degraded
// (naive-only) results must never collide with full-pipeline entries,
// or a breaker trip would let naive output satisfy full-pipeline
// requests after recovery.
func resultKey(key uint64, degraded bool) uint64 {
	if degraded {
		return key ^ 0x9e3779b97f4a7c15
	}
	return key
}

// execBudget derives the fallback cross-check's interpreter budget
// from the request deadline: ~50k steps per millisecond, clamped so a
// tight deadline still gets a useful oracle and a lavish one cannot
// exceed the library default.
func execBudget(d time.Duration) int {
	steps := int64(d/time.Millisecond) * 50_000
	if steps < 1<<14 {
		return 1 << 14
	}
	if steps > 1<<20 {
		return 1 << 20
	}
	return int(steps)
}

// debugHook turns the request debug block into a pipeline fault hook.
// A sleep ends early when ctx does, so a request whose client has gone
// or whose deadline has passed frees its worker at once: the pipeline
// then stops at the pass boundary that follows the hook.
func debugHook(ctx context.Context, d *debugRequest) func(string, *ir.Func) {
	return func(pass string, f *ir.Func) {
		if d.SleepMS > 0 {
			t := time.NewTimer(time.Duration(d.SleepMS) * time.Millisecond)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if d.PanicPass != "" && pass == d.PanicPass {
			panic("debug: injected panic after " + pass)
		}
	}
}
