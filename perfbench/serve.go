package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/lai"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/pipeline"
	"outofssa/internal/server"
	"outofssa/internal/workload"
)

const (
	// cacheEntries is laocd's default result- and decode-cache size.
	cacheEntries = 1024
	// clients is the number of closed-loop clients: one per core of the
	// two-core host the benchmark is tuned on.
	clients = 2
	// coldBatch is how many serve_cold requests are generated at a time,
	// between timed segments, so the stream is never held whole. A
	// segment of 1024 leaves ten requests beyond its p99.
	coldBatch = 1024
	// maxReplay bounds how many requests a traced run replays.
	maxReplay = 1500
	// execBudget is the fallback oracle budget the server derives from
	// its 2 s default deadline (50k steps per ms, clamped to 2^20).
	execBudget = 1 << 20
)

// Request body shapes. They rotate by request index: raw b1, v1 JSON
// and LAI text are the shapes the service is meant to keep.
const (
	shapeB1 = iota
	shapeV1
	shapeLAI
	numShapes
)

// request is one /compile call: its body, and the content the server
// decodes from it.
type request struct {
	index   int64
	shape   int
	body    []byte
	ctype   string
	content []byte // the IR document or LAI text the server decodes
}

// inputs generates the request stream of a serve workload from its
// seed: request i carries synthetic function base+i (workload.SynthFuncs)
// or, every third request, an LAI corpus function renamed to make its
// content distinct.
type inputs struct {
	base  int64    // seed of request 0 in the synthetic stream
	lai   []string // LAI corpus, one function per text
	names []string // the corpus functions' names
	tag   string   // per-seed tag in the renamed LAI functions
}

func newInputs(opt options, base int64) (*inputs, error) {
	in := &inputs{base: base, tag: fmt.Sprintf("s%d", opt.seed)}
	for _, name := range []string{"fir", "sort", "strsearch"} {
		data, err := os.ReadFile(filepath.Join(opt.root, "internal", "lai", "testdata", name+".lai"))
		if err != nil {
			return nil, err
		}
		f, err := lai.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s.lai: %w", name, err)
		}
		in.lai = append(in.lai, string(data))
		in.names = append(in.names, f.Name)
	}
	return in, nil
}

// laiText is the LAI corpus function for request i, renamed so every
// request has distinct content.
func (in *inputs) laiText(i int64) string {
	k := int(i/numShapes) % len(in.lai)
	return strings.Replace(in.lai[k], ".func "+in.names[k], fmt.Sprintf(".func %s_%s_%d", in.names[k], in.tag, i), 1)
}

// build makes requests [lo, hi).
func (in *inputs) build(lo, hi int64) ([]request, error) {
	funcs := workload.SynthFuncs(int(hi-lo), in.base+lo)
	reqs := make([]request, 0, hi-lo)
	for i := lo; i < hi; i++ {
		r := request{index: i, shape: int(i % numShapes)}
		switch r.shape {
		case shapeB1:
			doc, err := ir.MarshalBinary(funcs[i-lo])
			if err != nil {
				return nil, err
			}
			r.body, r.content, r.ctype = doc, doc, "application/octet-stream"
		case shapeV1:
			cr, err := workload.V1Request(funcs[i-lo], 0)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(&cr)
			if err != nil {
				return nil, err
			}
			r.body, r.content, r.ctype = body, cr.IR, "application/json"
		case shapeLAI:
			text := in.laiText(i)
			body, err := json.Marshal(&workload.ClientRequest{LAI: text})
			if err != nil {
				return nil, err
			}
			r.body, r.content, r.ctype = body, []byte(text), "application/json"
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// input rebuilds the function request i encodes, before any pass ran:
// the reference its compiled output is executed against.
func (in *inputs) input(i int64) (*ir.Func, error) {
	if i%numShapes == shapeLAI {
		return lai.Parse(in.laiText(i))
	}
	return workload.SynthFuncs(1, in.base+i)[0], nil
}

// laocdConfig is the server configuration cmd/laocd ships (its flag
// defaults), with the cache store in dir.
func laocdConfig(dir string) server.Config {
	return server.Config{
		Workers:          4,
		QueueDepth:       64,
		DefaultDeadline:  2 * time.Second,
		MaxDeadline:      10 * time.Second,
		Experiment:       pipeline.ExpLphiABIC,
		CacheEntries:     cacheEntries,
		BreakerThreshold: 5,
		BreakerWindow:    30 * time.Second,
		BreakerCooldown:  5 * time.Second,
		Metrics:          metrics.Default,
		CacheDir:         dir,
		StoreMaxBytes:    64 << 20,
		StoreFsync:       "never",
	}
}

// serverPipeline is the pipeline Config the server compiles with: its
// preset, checked, with fallback. serverRun adds the server's options.
func serverPipeline() (pipeline.Config, error) {
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	conf.Verify, conf.Fallback = true, true
	return conf, err
}

func serverRun(f *ir.Func, conf pipeline.Config) (*pipeline.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return pipeline.Run(f, conf,
		pipeline.WithExperiment(pipeline.ExpLphiABIC),
		pipeline.WithContext(ctx),
		pipeline.WithExecBudget(execBudget),
		pipeline.WithMetrics(metrics.Default))
}

// service is one running server and how long constructing it took.
type service struct {
	srv  *server.Server
	h    http.Handler
	boot time.Duration // server.New, which runs the store's warm scan
}

func startService(dir string) (*service, error) {
	t0 := time.Now()
	s, err := server.New(laocdConfig(dir))
	if err != nil {
		return nil, err
	}
	boot := time.Since(t0)
	s.Start()
	return &service{srv: s, h: s.Handler(), boot: boot}, nil
}

// stop drains the server, then collects its garbage so that the next
// server the benchmark starts does not stack on top of it in max_rss_mb.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	runtime.GC()
	return err
}

// handlerTransport is the socket-free RoundTripper of the server's load
// test: the client's request goes straight into the handler. It also
// times the handler call, which is the server's span.
type handlerTransport struct {
	h          http.Handler
	start, end time.Time
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.start = time.Now()
	t.h.ServeHTTP(rec, req)
	t.end = time.Now()
	return rec.Result(), nil
}

// outcome is what one request returned, as the client saw it.
type outcome struct {
	start, serveStart, serveEnd, end time.Time
	status                           int
	moves                            int
	cached, fellBack, degraded       bool
	digest                           [sha256.Size]byte
	err                              error
}

func (o *outcome) latency() float64 { return ms(o.end.Sub(o.start)) }

// ok reports whether the response is a full-pipeline 200.
func (o *outcome) ok() bool {
	return o.err == nil && o.status == http.StatusOK && !o.fellBack && !o.degraded
}

// drive posts reqs from the closed-loop clients and fills out.
func drive(h http.Handler, reqs []request, out []outcome) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			tr := &handlerTransport{h: h}
			hc := &http.Client{Transport: tr}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				post(hc, tr, &reqs[i], &out[i])
			}
		}()
	}
	wg.Wait()
}

func post(hc *http.Client, tr *handlerTransport, r *request, o *outcome) {
	var resp struct {
		Output   string `json:"output"`
		Moves    int    `json:"moves"`
		FellBack bool   `json:"fell_back"`
		Degraded bool   `json:"degraded"`
		Cached   bool   `json:"cached"`
	}
	o.start = time.Now()
	hr, err := hc.Post("http://laocd.bench/compile", r.ctype, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		o.end = time.Now()
		return
	}
	o.status = hr.StatusCode
	if hr.StatusCode == http.StatusOK {
		o.err = json.NewDecoder(hr.Body).Decode(&resp)
	}
	hr.Body.Close()
	o.end = time.Now()
	o.serveStart, o.serveEnd = tr.start, tr.end
	o.moves, o.cached, o.fellBack, o.degraded = resp.Moves, resp.Cached, resp.FellBack, resp.Degraded
	o.digest = sha256.Sum256([]byte(resp.Output))
}

// served is the part of an outcome the after-the-fact checks need.
type served struct {
	req    int64
	moves  int
	digest [sha256.Size]byte
}

// serverCounters sums every counter family of the metrics registry the
// server reports into.
func serverCounters() map[string]int64 {
	m := map[string]int64{}
	for _, c := range metrics.Default.Snapshot().Counters {
		m[c.Name] += c.Value
	}
	return m
}

func counterDelta(a, b map[string]int64, name string) float64 { return float64(b[name] - a[name]) }

// checkServed compiles each served function locally under the server's
// preset and requires the served output to print byte-identical; the
// local result must then behave like its input under ir.Exec, which
// shares no code with the passes. It returns the number of failures.
func checkServed(in *inputs, done []served) (failed int, noVerdict int, err error) {
	conf, err := pipeline.Preset(pipeline.ExpLphiABIC)
	if err != nil {
		return 0, 0, err
	}
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(done) {
					return
				}
				bad, nv, err := checkOne(in, conf, &done[i])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if bad {
					failed++
				}
				noVerdict += nv
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failed, noVerdict, firstErr
}

// execArgs are fixed argument vectors for the ir.Exec comparison;
// extra arguments are ignored and missing ones read as zero.
var execArgs = [][]int64{{0, 0, 0}, {1, 2, 3}, {9, 4, 2}, {17, 5, 1}}

func checkOne(in *inputs, conf pipeline.Config, s *served) (bad bool, noVerdict int, err error) {
	src, err := in.input(s.req)
	if err != nil {
		return false, 0, err
	}
	f := src.Clone()
	res, err := pipeline.Run(f, conf)
	if err != nil {
		return true, 0, nil
	}
	if sha256.Sum256([]byte(f.String())) != s.digest || res.Moves != s.moves {
		return true, 0, nil
	}
	for _, args := range execArgs {
		want, err := ir.Exec(src, args, execBudget)
		if errors.Is(err, ir.ErrStepBudget) {
			noVerdict++
			continue
		}
		if err != nil {
			return true, noVerdict, nil
		}
		got, err := ir.Exec(f, args, 2*execBudget)
		if err != nil || !want.Equal(got) {
			return true, noVerdict, nil
		}
	}
	return false, noVerdict, nil
}

// phase accumulates the timed segments of a serve workload.
type phase struct {
	all, plain, traced delta
	lats               []float64
	handle, client     []float64 // traced segments only, in µs
	failed             int
	attempted          int
	// keep makes the phase remember what every request was served, for
	// the checks after it.
	keep       bool
	done       []served
	tracedReqs []tracedReq
}

// tracedReq ties a traced operation to the request it sent; a request
// of the warm pool is sent many times, each time as a new operation.
type tracedReq struct {
	op  int
	req int64
}

// segment drives one batch as a timed segment and folds its outcomes
// into the phase. check decides whether an outcome counts as failed.
func (p *phase) segment(h http.Handler, reqs []request, tr *tracer, check func(*request, *outcome) bool) {
	out := make([]outcome, len(reqs))
	a := readCounters()
	drive(h, reqs, out)
	b := readCounters()
	lats := make([]float64, len(out))
	for i := range out {
		lats[i] = out[i].latency()
	}
	p.lats = append(p.lats, lats...)
	sg := seg{n: len(reqs), p50: quantile(lats, 0.5), p99: quantile(lats, 0.99)}
	p.all.add(a, b, sg)
	if tr != nil {
		p.traced.add(a, b, sg)
	} else {
		p.plain.add(a, b, sg)
	}
	for i := range out {
		o := &out[i]
		p.attempted++
		if !check(&reqs[i], o) {
			p.failed++
		}
		if p.keep {
			p.done = append(p.done, served{req: reqs[i].index, moves: o.moves, digest: o.digest})
		}
		if tr == nil {
			continue
		}
		serve := o.serveEnd.Sub(o.serveStart)
		p.handle = append(p.handle, float64(serve.Nanoseconds())/1e3)
		p.client = append(p.client, float64((o.end.Sub(o.start)-serve).Nanoseconds())/1e3)
		op := len(p.tracedReqs)
		root := tr.add(op, -1, "workload.request", tr.at(o.start), tr.at(o.end), false)
		tr.add(op, root, "server.Handler.ServeHTTP", tr.at(o.serveStart), tr.at(o.serveEnd), false)
		p.tracedReqs = append(p.tracedReqs, tracedReq{op: op, req: reqs[i].index})
	}
}

// finish fills the latency and throughput metrics of the phase.
func (p *phase) finish(rep *report, rss float64) {
	rep.attempted += p.attempted
	rep.failed += p.failed
	rep.e2e["p50_ms"] = median(p.lats)
	// p99 is the median segment's p99: every segment holds at least 1024
	// requests, so each p99 has ten samples beyond it, and a stall that
	// hits one segment does not become the run's tail.
	rep.e2e["p99_ms"] = median(p.all.perSeg(segP99))
	rep.info["latency_ms"] = latencyInfo(p.lats)
	common(rep, &p.all, p.attempted, rss)
	if len(p.traced.segs) > 0 {
		overhead(rep, &p.plain, &p.traced)
		rep.layers["server.handle_us_p50"] = median(p.handle)
		rep.layers["workload.client_us_p50"] = median(p.client)
	}
}

// replaySample picks at most maxReplay of the traced requests, evenly.
func (p *phase) replaySample() []tracedReq {
	if len(p.tracedReqs) <= maxReplay {
		return p.tracedReqs
	}
	out := make([]tracedReq, 0, maxReplay)
	for k := 0; k < maxReplay; k++ {
		out = append(out, p.tracedReqs[k*len(p.tracedReqs)/maxReplay])
	}
	return out
}

// storeLayers fills the cachestore and server counter metrics from the
// registry deltas over the timed phase.
func storeLayers(rep *report, a, b map[string]int64, funcs int) {
	n := float64(funcs)
	rep.layers["cachestore.appends_per_func"] = ratio(counterDelta(a, b, server.MetricStoreAppends), n)
	rep.layers["cachestore.append_bytes_per_func"] = ratio(counterDelta(a, b, server.MetricStoreAppendBytes), n)
	rep.layers["cachestore.dropped"] = counterDelta(a, b, server.MetricStoreDropped)
	// A compaction rereads the whole store; the timed phase is meant to
	// stay below laocd's 64 MB cap (about 11k cold requests), so every
	// run measures the same steady state. A nonzero count says it did not.
	rep.layers["cachestore.compactions"] = counterDelta(a, b, server.MetricStoreCompactions)
	rep.info["store_compactions"] = rep.layers["cachestore.compactions"]
	hits, misses := counterDelta(a, b, server.MetricCacheHits), counterDelta(a, b, server.MetricCacheMisses)
	rep.layers["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	dh, dm := counterDelta(a, b, server.MetricDecodeHits), counterDelta(a, b, server.MetricDecodeMisses)
	rep.layers["server.decode_hit_ratio"] = ratio(dh, dh+dm)
}

// runServeCold is the miss path: every request is a distinct seeded
// function, so each pays decode, the checked pipeline, printing, a cache
// insert that evicts, and a store append.
func runServeCold(opt options) (*report, error) {
	in, err := newInputs(opt, opt.seed*10_000_000)
	if err != nil {
		return nil, err
	}
	rep := newReport(opt)

	// Setup: boot on an empty store and warm until both caches hold
	// cacheEntries entries, so the timed phase evicts. The warm-up set is
	// the first cacheEntries requests of the stream (topped up should two
	// seeds ever generate the same function) and is built before the
	// clock starts.
	warmReqs, err := in.build(0, cacheEntries)
	if err != nil {
		return nil, err
	}
	var svc *service
	var setups, boots []float64
	var warm []served
	next := int64(cacheEntries)
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(opt.workdir, "cold-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		c0 := serverCounters()
		t0 := time.Now()
		svc, err = startService(dir)
		if err != nil {
			return nil, err
		}
		out := make([]outcome, len(warmReqs))
		drive(svc.h, warmReqs, out)
		for {
			// Two seeds may generate the same function, which fills no
			// entry; the first set-up tops the warm-up set up, later ones
			// post the same set.
			c := serverCounters()
			need := cacheEntries - min(c[server.MetricCacheMisses]-c0[server.MetricCacheMisses],
				c[server.MetricDecodeMisses]-c0[server.MetricDecodeMisses])
			if need <= 0 {
				break
			}
			more, err := in.build(next, next+need)
			if err != nil {
				return nil, err
			}
			next += need
			mo := make([]outcome, len(more))
			drive(svc.h, more, mo)
			warmReqs, out = append(warmReqs, more...), append(out, mo...)
		}
		setups = append(setups, time.Since(t0).Seconds())
		boots = append(boots, ms(svc.boot))
		warm = warm[:0]
		for k := range out {
			if !out[k].ok() {
				rep.failed++
			}
			warm = append(warm, served{req: warmReqs[k].index, moves: out[k].moves, digest: out[k].digest})
		}
	}
	moves := 0.0
	for _, w := range warm {
		moves += float64(w.moves)
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	p := phase{keep: true}
	c0 := serverCounters()
	for seg := 0; seg == 0 || p.all.wall.Seconds() < opt.seconds; seg++ {
		reqs, err := in.build(next, next+coldBatch)
		if err != nil {
			return nil, err
		}
		next += coldBatch
		var segTr *tracer
		if tr != nil && seg%2 == 1 {
			segTr = tr
		}
		p.segment(svc.h, reqs, segTr, func(_ *request, o *outcome) bool { return o.ok() })
	}
	rss := maxRSSMB()
	c1 := serverCounters()
	if err := svc.stop(); err != nil {
		return nil, err
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["moves_total"] = moves
	p.finish(rep, rss)
	storeLayers(rep, c0, c1, p.attempted)
	rep.layers["server.failed"] = float64(p.failed)
	rep.layers["cachestore.warm_scan_ms"] = median(boots)
	rep.info["setup_s"] = setups
	rep.info["warmup_requests"] = len(warm)

	// Every distinct function the last server answered, warm-up included,
	// is checked against its local compile and its input's behaviour.
	reqOf := func(i int64) (*request, error) {
		rs, err := in.build(i, i+1)
		if err != nil {
			return nil, err
		}
		return &rs[0], nil
	}
	bad, noVerdict, err := checkServed(in, append(warm, p.done...))
	if err != nil {
		return nil, err
	}
	rep.failed += bad
	rep.info["check_failed"] = bad
	rep.info["exec_no_verdict"] = noVerdict

	if tr != nil {
		if err := replayServe(tr, rep, p.replaySample(), reqOf, nil); err != nil {
			return nil, err
		}
		if err := tr.write(spanPath(opt), rep.info); err != nil {
			return nil, err
		}
		rep.info["spans"] = spanPath(opt)
	}
	return rep, nil
}

// runServeWarm is the hit path: a pool no larger than the caches is
// compiled once into a store; the server restarts on that store and the
// timed requests cycle the pool, so every one must be served from the
// result cache without running the pipeline.
func runServeWarm(opt options) (*report, error) {
	in, err := newInputs(opt, opt.seed*10_000_000+5_000_000)
	if err != nil {
		return nil, err
	}
	rep := newReport(opt)
	pool, err := in.build(0, cacheEntries)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.workdir, "warm-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Preparation (not set-up): compile the pool through one server on
	// the store, then drain it so the store is flushed.
	svc, err := startService(dir)
	if err != nil {
		return nil, err
	}
	ref := make([]outcome, len(pool))
	drive(svc.h, pool, ref)
	if err := svc.stop(); err != nil {
		return nil, err
	}
	moves := 0.0
	refServed := make([]served, len(pool))
	for i := range ref {
		if !ref[i].ok() {
			rep.failed++
		}
		moves += float64(ref[i].moves)
		refServed[i] = served{req: pool[i].index, moves: ref[i].moves, digest: ref[i].digest}
	}
	hit := func(r *request, o *outcome) bool {
		return o.ok() && o.cached && o.digest == refServed[r.index].digest
	}

	// Setup: restart on the filled store (the warm scan), then one pass
	// over the pool.
	var setups, boots []float64
	var warmRecords float64
	svc = nil
	for i := 0; i < setupRepeats; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		c0 := serverCounters()
		t0 := time.Now()
		svc, err = startService(dir)
		if err != nil {
			return nil, err
		}
		c1 := serverCounters()
		out := make([]outcome, len(pool))
		drive(svc.h, pool, out)
		setups = append(setups, time.Since(t0).Seconds())
		boots = append(boots, ms(svc.boot))
		warmRecords = counterDelta(c0, c1, server.MetricStoreWarm)
		for k := range out {
			if !hit(&pool[k], &out[k]) {
				rep.failed++
			}
		}
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	var p phase
	c0 := serverCounters()
	for seg := 0; seg == 0 || p.all.wall.Seconds() < opt.seconds; seg++ {
		var segTr *tracer
		if tr != nil && seg%2 == 1 {
			segTr = tr
		}
		p.segment(svc.h, pool, segTr, hit)
	}
	rss := maxRSSMB()
	c1 := serverCounters()
	if err := svc.stop(); err != nil {
		return nil, err
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["moves_total"] = moves
	p.finish(rep, rss)
	storeLayers(rep, c0, c1, p.attempted)
	rep.layers["server.failed"] = float64(p.failed)
	rep.layers["cachestore.warm_scan_ms"] = median(boots)
	rep.layers["cachestore.warm_records"] = warmRecords
	rep.info["setup_s"] = setups

	// The pool's outputs, which every timed response matched, are checked
	// once against local compiles and ir.Exec.
	reqOf := func(i int64) (*request, error) { return &pool[i], nil }
	bad, noVerdict, err := checkServed(in, refServed)
	if err != nil {
		return nil, err
	}
	rep.failed += bad
	rep.info["check_failed"] = bad
	rep.info["exec_no_verdict"] = noVerdict

	if tr != nil {
		masters := map[int64]*ir.Func{}
		for _, t := range p.replaySample() {
			i := t.req
			if masters[i] != nil {
				continue
			}
			f, err := decode(&pool[i])
			if err != nil {
				return nil, err
			}
			f.Freeze()
			masters[i] = f
		}
		if err := replayServe(tr, rep, p.replaySample(), reqOf, masters); err != nil {
			return nil, err
		}
		if err := tr.write(spanPath(opt), rep.info); err != nil {
			return nil, err
		}
		rep.info["spans"] = spanPath(opt)
	}
	return rep, nil
}

// decode parses a request's content the way the server does.
func decode(r *request) (*ir.Func, error) {
	if r.shape == shapeLAI {
		return lai.Parse(string(r.content))
	}
	return ir.Unmarshal(r.content)
}

// decodeSpan names the decode call a request shape takes.
func decodeSpan(r *request) string {
	switch r.shape {
	case shapeB1:
		return "ir.Unmarshal/b1"
	case shapeV1:
		return "ir.Unmarshal/v1"
	}
	return "lai.Parse"
}

// replayServe re-enacts, after the timed phase, what the server did for
// each sampled traced request, as replayed children of its
// server.Handler.ServeHTTP span. A miss (masters == nil) decodes the
// content, snapshots the decoded master, runs pipeline.Run with the
// server's exact options and prints the result; the passes are then
// replayed one by one below pipeline.Run and must print the same. (The
// served output itself is checked against a local compile for every
// request.) A hit (masters set) only snapshots its decode-cache master.
// The server's self time is its span minus these children.
func replayServe(tr *tracer, rep *report, sample []tracedReq, reqOf func(int64) (*request, error), masters map[int64]*ir.Func) error {
	conf, err := serverPipeline()
	if err != nil {
		return err
	}
	serveSpan := map[int]int{}
	for i := range tr.spans {
		if tr.spans[i].Name == "server.Handler.ServeHTTP" {
			serveSpan[tr.spans[i].Op] = i
		}
	}
	replayedOps := map[int]bool{}
	var counters interference.Counters
	mismatches := 0
	for _, t := range sample {
		op, idx := t.op, t.req
		parent, ok := serveSpan[op]
		if !ok {
			return fmt.Errorf("trace: request %d has no server span", idx)
		}
		replayedOps[op] = true
		st := stepper{t: tr, op: op, parent: parent}
		r, err := reqOf(idx)
		if err != nil {
			return err
		}
		if masters != nil {
			st.step("ir.Func.Snapshot", func() error { masters[idx].Snapshot(); return nil })
			continue
		}
		var master *ir.Func
		if err := st.step(decodeSpan(r), func() (err error) { master, err = decode(r); return err }); err != nil {
			return err
		}
		master.Freeze()
		var f *ir.Func
		st.step("ir.Func.Snapshot", func() error { f = master.Snapshot(); return nil })
		p := tr.add(op, parent, "pipeline.Run", tr.now(), 0, true)
		_, err = serverRun(f, conf)
		tr.spans[p].End = tr.now()
		if err != nil {
			return fmt.Errorf("request %d: %w", idx, err)
		}
		var out string
		st.step("ir.Func.String", func() error { out = f.String(); return nil })

		g := master.Snapshot()
		rr, err := replay(st.under(p), g, conf)
		if err != nil {
			return fmt.Errorf("request %d: %w", idx, err)
		}
		addCounters(&counters, rr.interference)
		if g.String() != out {
			mismatches++
		}
	}
	if mismatches > 0 {
		rep.failed += mismatches
		rep.info["replay_mismatches"] = mismatches
	}
	sp, err := tr.split(func(op int) bool { return replayedOps[op] })
	if err != nil {
		return err
	}
	sp.fill(rep)
	rep.layers["server.self_us_p50"] = median(sp.selfOf["server.Handler.ServeHTTP"]) / 1e3
	interferenceLayers(rep, &counters, sp.ops)
	return nil
}
