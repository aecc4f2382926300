// Package pipeline composes the repository's passes into the exact
// experiment configurations of the paper's Table 1: which collect phases
// run (pinningSP, pinningABI, pinningφ, pinningCSSA after Sreedhar),
// whether the NaiveABI fallback and the aggressive "+C" coalescing
// post-pass run, and the Table 5 variants of the φ-coalescing algorithm.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"outofssa/internal/analysis"
	"outofssa/internal/cfg"
	"outofssa/internal/coalesce"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/liveness"
	"outofssa/internal/naiveabi"
	"outofssa/internal/obs"
	"outofssa/internal/obs/metrics"
	"outofssa/internal/outofssa/leung"
	"outofssa/internal/outofssa/naive"
	"outofssa/internal/outofssa/sreedhar"
	"outofssa/internal/pin"
	"outofssa/internal/psi"
	"outofssa/internal/regalloc"
	"outofssa/internal/ssa"
	"outofssa/internal/ssaopt"
	"outofssa/internal/verify"
)

// Config selects the passes, mirroring the columns of Table 1.
type Config struct {
	// Optimize runs the SSA optimization bundle (copy propagation,
	// constant folding, local value numbering, DCE) first, like the LAO
	// does; it creates the φ webs the coalescing experiments measure.
	Optimize bool
	// Psi runs if-conversion to ψ-SSA followed by the ψ-conventional
	// lowering (predicated select chains with 2-operand-like ties), the
	// paper's §5 treatment of predicated code.
	Psi bool
	// Sreedhar runs the SSA→CSSA conversion of Sreedhar et al. followed
	// by pinningCSSA.
	Sreedhar bool
	// ABI runs the pinningABI collect phase (renaming constraints handled
	// by the out-of-pinned-SSA translation).
	ABI bool
	// PhiCoalesce runs the paper's pinningφ phase (Program_pinning).
	PhiCoalesce bool
	// PrePin runs the [LIM2] pre-pass first: definitions whose uses are
	// pinned (2-operand ties, ABI slots) are coalesced with the pinned
	// resource when interference-free.
	PrePin bool
	// Coalesce selects the pinningφ variant (mode, depth constraint).
	Coalesce coalesce.Options
	// NaiveOut replaces the out-of-pinned-SSA translation by the naive
	// Cytron/Briggs copy insertion (pins are ignored). Only meaningful
	// when no pinning phase ran.
	NaiveOut bool
	// NaiveABI inserts local moves around constrained instructions after
	// translation (used when ABI is false but constraints must hold).
	NaiveABI bool
	// Chaitin runs the aggressive repeated register coalescer ("+C").
	Chaitin bool

	// Verify enables checked mode: internal/verify re-checks the IR
	// invariants on pipeline entry and after every pass, and a violation
	// aborts the run with a *PassError naming the offending pass. The
	// verifier only reads the IR, so enabling it never changes codegen.
	Verify bool
	// Fallback retries a failed run (pass error, contained panic, or
	// checked-mode violation) through the naive out-of-SSA translation
	// on a pre-pipeline snapshot, cross-checked with the ir.Exec oracle;
	// the Result then has FellBack set and FallbackFrom recording the
	// original failure. An *InputError is never retried.
	Fallback bool
	// FaultHook, when non-nil, runs after each pass body (before
	// checked-mode verification) with the pass name and the function —
	// the corruption seam used by the fault-injection tests. Production
	// callers leave it nil.
	FaultHook func(pass string, f *ir.Func)
}

// Result aggregates the outcome of running one configuration.
type Result struct {
	// Opt reports what the SSA optimizer did (nil when disabled).
	Opt *ssaopt.Stats

	// Moves is the final move-instruction count — the paper's metric for
	// Tables 2-4.
	Moves int
	// WeightedMoves is the 5^depth weighted count of Table 5.
	WeightedMoves int64
	// Instrs is the final instruction count.
	Instrs int

	Psi      *psi.Stats
	Sreedhar *sreedhar.Stats
	Coalesce *coalesce.Stats
	PrePin   *coalesce.PrePinStats
	Leung    *leung.Stats
	Naive    *naive.Stats
	NaiveABI *naiveabi.Stats
	Chaitin  *regalloc.Stats
	// CSSAUnpinned counts φ slots pinningCSSA had to leave unpinned.
	CSSAUnpinned int

	// FellBack reports that the configured pipeline failed and the
	// result instead comes from the naive fallback translation
	// (Config.Fallback). FallbackFrom is the failure that triggered it,
	// normally a *PassError.
	FellBack     bool
	FallbackFrom error
}

// Option configures one Run call. The options cover the orthogonal
// knobs the retired Run/RunTraced/RunSSA/RunSSATraced quartet encoded
// as separate entry points: tracing, experiment labelling, and starting
// from pre-built SSA form.
type Option func(*runConfig)

type runConfig struct {
	tracer obs.Tracer
	exp    string
	info   *ssa.Info
	inSSA  bool
	// ssaVerified says the input in SSA form passed ssa.Verify when
	// BuildSSA converted it and has not changed since: a batch job's
	// snapshot of a converted master (Job.SSA). Checked mode's entry
	// check then skips what ssa.Verify checked, as it does for a run
	// that converts its own input.
	ssaVerified bool
	metrics     *metrics.Registry
	ctx         context.Context
	execBudget  int
	// ended, when set, sees each column's final function in a Plan walk
	// (export_test.go sets it; no Option does).
	ended func(col int, f *ir.Func)
}

// WithTracer attaches the instrumented pass runner: every executed pass
// is reported to tr as an obs.Event carrying wall time, counters,
// allocation deltas and IR before/after snapshots. A nil tracer is the
// unmeasured fast path — no snapshots, no clock reads.
func WithTracer(tr obs.Tracer) Option {
	return func(rc *runConfig) { rc.tracer = tr }
}

// WithExperiment labels trace events with the experiment configuration
// name. It does not select the configuration — the Config does; the
// label keys trace diffing and table aggregation.
func WithExperiment(name string) Option {
	return func(rc *runConfig) { rc.exp = name }
}

// WithContext attaches a cancellation context to one Run call. The pass
// runner checks it cooperatively between passes: once ctx is done, the
// run stops before the next pass with a *PassError whose Cause is
// ctx.Err() (so errors.Is sees context.Canceled / DeadlineExceeded
// through it), naming the pass that was about to run. A pass body in
// flight is never interrupted — the IR is only ever abandoned at a
// pass boundary, where it is structurally consistent. The fallback
// path observes the same context, so a dead client stops burning the
// worker instead of re-translating for nobody. A nil ctx (the default)
// is the zero-overhead uncancellable path.
func WithContext(ctx context.Context) Option {
	return func(rc *runConfig) {
		if ctx != nil && ctx != context.Background() {
			rc.ctx = ctx
		}
	}
}

// WithExecBudget bounds each ir.Exec oracle run the pipeline performs
// on this call (the fallback cross-check) to n interpreter steps
// instead of the default. An overrun surfaces as ir.ErrStepBudget,
// which the cross-check treats as "no verdict" on the reference side —
// the hook a deadline-bound service uses to keep worst-case oracle
// work proportional to the request budget. n <= 0 keeps the default.
func WithExecBudget(n int) Option {
	return func(rc *runConfig) {
		if n > 0 {
			rc.execBudget = n
		}
	}
}

// WithSSAInfo declares that f is already in (pinned or plain) SSA form,
// skipping SSA construction. info carries the dedicated-register
// origins for the pinningSP phase; pass ssa.EmptyInfo() or nil for
// hand-built SSA without renamed dedicated registers.
func WithSSAInfo(info *ssa.Info) Option {
	return func(rc *runConfig) { rc.info = info; rc.inSSA = true }
}

// Run converts the pre-SSA function f through SSA and back according to
// conf, mutating f, and returns the statistics. The typical call site
// clones the input once per configuration. Options attach tracing
// (WithTracer, WithExperiment) or start from pre-built SSA
// (WithSSAInfo); with no options Run is the plain unmeasured pipeline.
func Run(f *ir.Func, conf Config, opts ...Option) (*Result, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	return rc.run(f, conf)
}

// run is Run with its options already applied.
func (rc *runConfig) run(f *ir.Func, conf Config) (*Result, error) {
	info, err := rc.ssaInfo(f)
	if err != nil {
		return nil, err
	}
	return runSSA(f, info, conf, rc)
}

// ssaInfo returns the Info of the run's SSA form: the one WithSSAInfo
// declared, or that of converting f in place when it is not in SSA
// form yet.
func (rc *runConfig) ssaInfo(f *ir.Func) (*ssa.Info, error) {
	if !rc.inSSA {
		return BuildSSA(f)
	}
	if rc.info == nil {
		return ssa.EmptyInfo(), nil
	}
	return rc.info, nil
}

// BuildSSA converts the pre-SSA function f to pruned SSA form in place
// and verifies the result: the construction Run starts with. The Info
// it returns is what WithSSAInfo takes, so one conversion can feed
// many runs, each on its own Snapshot of the converted f. The
// configuration plays no part in construction, and it emits no trace
// event or metric. Its failures are *InputError values.
func BuildSSA(f *ir.Func) (*ssa.Info, error) {
	info, err := ssa.Build(f)
	if err != nil {
		return nil, &InputError{fmt.Errorf("pipeline: SSA construction: %w", err)}
	}
	if err := ssa.Verify(f); err != nil {
		return nil, &InputError{fmt.Errorf("pipeline: after SSA construction: %v", err)}
	}
	return info, nil
}

// runSSA is the pipeline body: the pass composition applied to a
// function in (pinned or plain) SSA form.
func runSSA(f *ir.Func, info *ssa.Info, conf Config, rc *runConfig) (*Result, error) {
	exp, tr, reg := rc.exp, rc.tracer, rc.metrics
	if conf.Verify {
		if err := cowProbe(f, exp); err != nil {
			return nil, err
		}
	}
	var backup *ir.Func
	if conf.Fallback {
		// Copy-on-write: the backup shares f's slabs and only the slabs f
		// actually mutates get copied (lazily, at first write). A run that
		// fails before mutating — or that only reads — pays nothing for
		// its safety net.
		backup = f.Snapshot()
	}
	r := &Result{}
	if reg != nil {
		runCellsFor(reg, exp).runs.Inc()
	}
	opts := runOpts{verify: conf.Verify, built: !rc.inSSA || rc.ssaVerified, faultHook: conf.FaultHook, metrics: reg,
		ctx: rc.ctx, execBudget: rc.execBudget}
	if err := runPasses(f, info, r, exp, conf.passes(), tr, opts); err != nil {
		var invalid *InputError
		if backup == nil || errors.As(err, &invalid) {
			return nil, err
		}
		// Graceful degradation: discard whatever the failed run left in f
		// and r, redo the translation naively from the entry snapshot.
		*r = Result{}
		if ferr := fallbackRun(f, backup, exp, tr, opts, r); ferr != nil {
			return nil, fmt.Errorf("pipeline: fallback failed (%v) after %w", ferr, err)
		}
		reg.Counter(MetricFallbacks).Inc()
		r.FellBack = true
		r.FallbackFrom = err
	}

	maxLive := finish(f, r, reg != nil)
	if reg != nil {
		observeMaxLive(reg, maxLive)
	}
	return r, nil
}

// finish reads the end-of-run numbers of f into r: moves, weighted
// moves against freshly computed loop depths, and instructions. When
// metered it also returns MAXLIVE, the derived per-function register
// pressure on the final code, answered by the (cached) query liveness
// engine; otherwise it returns 0.
func finish(f *ir.Func, r *Result, metered bool) int64 {
	cfg.SetLoopDepth(f, analysis.Dominators(f))
	r.Moves = f.CountMoves()
	r.WeightedMoves = f.WeightedMoves()
	r.Instrs = f.NumInstrs()
	if !metered {
		return 0
	}
	return int64(liveness.MaxLive(f, analysis.Liveness(f)))
}

// observeMaxLive records one run's MAXLIVE in the deterministic
// histogram the counter golden pins.
func observeMaxLive(reg *metrics.Registry, maxLive int64) {
	h := reg.Histogram(MetricMaxLive)
	h.SetDeterministic()
	h.Observe(maxLive)
}

// pass is one step of the instrumented runner: its key, the
// checked-mode verifier stage its output must satisfy, the work
// itself, and an optional accessor for the pass's Stats struct,
// flattened into the event's counters after a successful run. A pass
// binds to its function, Info and Result only when it runs, so one
// pass list serves every function a Plan runs on. run closures wrap
// their own errors so the unmeasured path reports exactly what the
// pre-runner pipeline did.
type pass struct {
	passKey
	stage verify.Stage
	run   func(f *ir.Func, info *ssa.Info, r *Result) error
	stats func(r *Result) counterLister
}

// passKey identifies a pass in a Plan's trie: two columns share a pass
// run only where their pass lists agree on every key up to it. The key
// is the pass name (stable across configurations — it keys trace
// diffing) plus every Config option that changes what the pass does.
// TestPassKeysCoverConfig fails when a Config field reaches a pass
// without reaching its key.
type passKey struct {
	name string
	// coalesce is the φ-coalescing variant: all of Config.Coalesce for
	// pinning-phi, its Mode alone for pre-pin, and zero elsewhere.
	coalesce coalesce.Options
}

// counterLister is a pass's Stats struct: it appends its counters to
// dst in a fixed order, the same list on every successful run.
type counterLister interface {
	AppendCounters(dst []obs.Counter) []obs.Counter
}

// cssaStats is the pinning-cssa pass's Stats.
type cssaStats struct{ Unpinned int }

func (s cssaStats) AppendCounters(dst []obs.Counter) []obs.Counter {
	return append(dst, obs.Counter{Name: "Unpinned", Value: int64(s.Unpinned)})
}

// passes materializes conf as the ordered pass list of the paper's
// Table 1 pipeline. The passes write their statistics into the Result
// they run with. Passes up to and including the pinning phases leave
// the function in (pinned) SSA form, so they carry verify.StageSSA; the
// out-of-SSA translation and everything after it carry
// verify.StagePostSSA.
func (conf Config) passes() []pass {
	var ps []pass
	add := func(k passKey, stage verify.Stage, run func(*ir.Func, *ssa.Info, *Result) error, stats func(*Result) counterLister) {
		ps = append(ps, pass{passKey: k, stage: stage, run: run, stats: stats})
	}

	if !conf.ABI {
		// "Renaming constraints ignored" (Table 2 setup): drop textual
		// pins to dedicated registers other than SP. Only SP constraints
		// cannot be ignored (paper §5); the rest are either ignored
		// entirely or handled later by NaiveABI.
		add(passKey{name: "strip-pins"}, verify.StageSSA, func(f *ir.Func, _ *ssa.Info, _ *Result) error {
			stripNonSPPins(f)
			return nil
		}, nil)
	}

	if conf.Optimize {
		add(passKey{name: "ssaopt"}, verify.StageSSA, func(f *ir.Func, info *ssa.Info, r *Result) error {
			r.Opt = ssaopt.Optimize(f, info)
			if err := ssa.Verify(f); err != nil {
				return fmt.Errorf("pipeline: after SSA optimization: %v", err)
			}
			return nil
		}, func(r *Result) counterLister { return r.Opt })
	}

	if conf.Psi {
		add(passKey{name: "psi"}, verify.StageSSA, func(f *ir.Func, _ *ssa.Info, r *Result) error {
			st := psi.IfConvert(f)
			lo := psi.ConvertPsi(f)
			st.PsisLowered, st.TiesPinned = lo.PsisLowered, lo.TiesPinned
			r.Psi = st
			// The ψ-conventional chains seed with constant-true selects;
			// fold them into copies and drop the dead seeds.
			ssaopt.FoldSelects(f)
			ssaopt.EliminateDeadCode(f)
			if err := ssa.Verify(f); err != nil {
				return fmt.Errorf("pipeline: after psi conversion: %v", err)
			}
			return nil
		}, func(r *Result) counterLister { return r.Psi })
	}

	if conf.Sreedhar {
		add(passKey{name: "sreedhar"}, verify.StageSSA, func(f *ir.Func, info *ssa.Info, r *Result) error {
			st, _, err := sreedhar.ConvertToCSSA(f, sreedhar.Options{
				Unsplittable: func(v ir.ValueID) bool { return info.OrigPhys(v) != ir.NoValue },
			})
			if err != nil {
				return fmt.Errorf("pipeline: sreedhar: %v", err)
			}
			r.Sreedhar = st
			return nil
		}, func(r *Result) counterLister { return r.Sreedhar })
	}

	// A pin clash the pinning passes find is the input's fault: its own
	// pins ask for a register the SP or ABI rules assign elsewhere.
	add(passKey{name: "pinning-sp"}, verify.StageSSA, func(f *ir.Func, info *ssa.Info, _ *Result) error {
		if err := pin.CollectSP(f, info); err != nil {
			return &InputError{err}
		}
		return nil
	}, nil)
	if conf.ABI {
		add(passKey{name: "pinning-abi"}, verify.StageSSA, func(f *ir.Func, _ *ssa.Info, _ *Result) error {
			if err := pin.CollectABI(f); err != nil {
				return &InputError{err}
			}
			return nil
		}, nil)
	}

	if conf.Sreedhar {
		add(passKey{name: "pinning-cssa"}, verify.StageSSA, func(f *ir.Func, _ *ssa.Info, r *Result) error {
			live := analysis.Liveness(f)
			an := interference.New(f, live, analysis.Dominators(f), interference.Exact)
			_, unpinned, err := pin.CollectPhiCSSA(f, an)
			if err != nil {
				return fmt.Errorf("pipeline: pinningCSSA: %v", err)
			}
			r.CSSAUnpinned = unpinned
			return nil
		}, func(r *Result) counterLister { return cssaStats{r.CSSAUnpinned} })
	}

	if conf.PrePin {
		mode := conf.Coalesce.Mode
		add(passKey{name: "pre-pin", coalesce: coalesce.Options{Mode: mode}}, verify.StageSSA, func(f *ir.Func, _ *ssa.Info, r *Result) error {
			st, err := coalesce.PrePinDefs(f, mode)
			if err != nil {
				return fmt.Errorf("pipeline: pre-pinning: %v", err)
			}
			r.PrePin = st
			return nil
		}, func(r *Result) counterLister { return r.PrePin })
	}

	if conf.PhiCoalesce {
		opt := conf.Coalesce
		add(passKey{name: "pinning-phi", coalesce: opt}, verify.StageSSA, func(f *ir.Func, _ *ssa.Info, r *Result) error {
			st, err := coalesce.ProgramPinning(f, opt)
			if err != nil {
				return fmt.Errorf("pipeline: pinningφ: %v", err)
			}
			r.Coalesce = st
			return nil
		}, func(r *Result) counterLister { return r.Coalesce })
	}

	if conf.NaiveOut {
		add(passKey{name: "out-naive"}, verify.StagePostSSA, func(f *ir.Func, _ *ssa.Info, r *Result) error {
			st, err := naive.Translate(f)
			if err != nil {
				return fmt.Errorf("pipeline: naive out-of-SSA: %v", err)
			}
			r.Naive = st
			return nil
		}, func(r *Result) counterLister { return r.Naive })
	} else {
		add(passKey{name: "out-of-pinned-ssa"}, verify.StagePostSSA, func(f *ir.Func, _ *ssa.Info, r *Result) error {
			st, err := leung.Translate(f)
			if err != nil {
				return fmt.Errorf("pipeline: out-of-pinned-SSA: %v", err)
			}
			r.Leung = st
			return nil
		}, func(r *Result) counterLister { return r.Leung })
	}

	if conf.NaiveABI {
		add(passKey{name: "naive-abi"}, verify.StagePostSSA, func(f *ir.Func, _ *ssa.Info, r *Result) error {
			r.NaiveABI = naiveabi.Apply(f)
			return nil
		}, func(r *Result) counterLister { return r.NaiveABI })
	}
	if conf.Chaitin {
		add(passKey{name: "chaitin"}, verify.StagePostSSA, func(f *ir.Func, _ *ssa.Info, r *Result) error {
			r.Chaitin = regalloc.AggressiveCoalesce(f)
			return nil
		}, func(r *Result) counterLister { return r.Chaitin })
	}
	return ps
}

// runPasses executes the pass list on f, writing statistics into r.
// With a nil tracer, no metrics registry and default opts it is a
// plain loop — no snapshots, no clock reads, no allocations beyond
// what the passes themselves do. With a tracer or a registry every
// pass yields one obs.Event (see step), which the registry records and
// the tracer receives, so metrics and traces agree by construction.
// Every pass failure — its own error, a contained panic, or a
// checked-mode violation — surfaces as a *PassError; in checked mode
// the entry state is verified too, and a violation there is an
// *InputError wrapping a *PassError for the pseudo-pass "<input>".
// Verifier time is charged to the pass it checks.
func runPasses(f *ir.Func, info *ssa.Info, r *Result, exp string, ps []pass, tr obs.Tracer, opts runOpts) error {
	if opts.verify && len(ps) > 0 {
		if err := verifyInput(f, exp, opts.built); err != nil {
			return err
		}
	}
	reg := opts.metrics
	m := meter{on: tr != nil || reg != nil, detail: tr != nil, reg: reg, tr: tr}
	var runStart time.Time
	if m.on {
		runStart = time.Now()
	}
	if tr != nil {
		tr.RunStart(f.Name, exp, obs.Snapshot(f))
	}
	for i := range ps {
		if _, err := step(f, info, r, exp, i, &ps[i], opts, m); err != nil {
			return err
		}
	}
	if tr != nil {
		tr.RunEnd(f.Name, exp, obs.Snapshot(f), time.Since(runStart).Nanoseconds())
	}
	if reg != nil {
		runCellsFor(reg, exp).wall.Observe(time.Since(runStart).Nanoseconds())
	}
	return nil
}

// meter says what step measures and where its event goes at once.
type meter struct {
	// on makes step build an event: wall time, counters and error.
	on bool
	// detail adds IR snapshots before and after and runtime.MemStats
	// allocation deltas. Reading those stops the world and yields
	// process-global numbers, fit for serial diagnostics (a tracer is
	// attached) but not for the serving path (a registry alone).
	detail bool
	// reg and tr receive the event as soon as it is built. The Plan
	// walk leaves both nil: it replays each event once per column after
	// the walk.
	reg *metrics.Registry
	tr  obs.Tracer
}

// step runs pass p as pass seq of run exp on f with r: the
// cancellation check, the contained pass body, checked-mode verify,
// and, as m asks, the pass's event, which it hands to m's registry and
// tracer. It returns the event (nil when m is off) and the failure.
// The linear runner and the Plan walk both run every pass through it.
func step(f *ir.Func, info *ssa.Info, r *Result, exp string, seq int, p *pass, opts runOpts, m meter) (*obs.Event, error) {
	// Cancellation is not a pass failure: it is not fed into the
	// pass-error metrics, the caller accounts for it instead.
	if err := ctxCheck(f, exp, p, opts); err != nil {
		return nil, err
	}
	if !m.on {
		return nil, runOne(f, info, r, exp, p, opts)
	}
	ev := &obs.Event{Func: f.Name, Config: exp, Pass: p.name, Seq: seq}
	var alloc0, mallocs0 uint64
	if m.detail {
		ev.Before = obs.Snapshot(f)
		alloc0, mallocs0 = memStats()
	}
	t0 := time.Now()
	err := runOne(f, info, r, exp, p, opts)
	ev.WallNS = time.Since(t0).Nanoseconds()
	if m.detail {
		alloc1, mallocs1 := memStats()
		ev.AllocBytes, ev.Mallocs = alloc1-alloc0, mallocs1-mallocs0
		ev.After = obs.Snapshot(f)
	}
	if err != nil {
		ev.Err = err.Error()
	} else if p.stats != nil {
		ev.Counters = p.stats(r).AppendCounters(nil)
	}
	emit(m.reg, m.tr, ev, err)
	return ev, err
}

// emit hands one pass event to the registry and the tracer; either may
// be nil.
func emit(reg *metrics.Registry, tr obs.Tracer, ev *obs.Event, err error) {
	if reg != nil {
		recordPass(reg, ev, err)
	}
	if tr != nil {
		tr.PassEnd(ev)
	}
}

// memStats returns the process's cumulative allocated bytes and
// allocation count.
func memStats() (totalAlloc, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// stripNonSPPins removes operand pins to dedicated registers other than
// SP, implementing the "without renaming constraints" experimental setup.
func stripNonSPPins(f *ir.Func) {
	sp := f.Target.SP
	for _, b := range f.Blocks() {
		for _, in := range b.Instrs() {
			for i, d := range in.Defs() {
				if d.Pinned() && f.IsPhys(d.Pin()) && d.Pin() != sp {
					in.SetDef(i, ir.Operand{Val: d.Val})
				}
			}
			for i, u := range in.Uses() {
				if u.Pinned() && f.IsPhys(u.Pin()) && u.Pin() != sp {
					in.SetUse(i, ir.Operand{Val: u.Val})
				}
			}
		}
	}
}

// The named experiments of Table 1.
const (
	// Table 2 (no ABI constraints).
	ExpLphiC = "Lphi+C" // pinningSP, pinningφ, out-of-pinned-SSA, +C
	ExpC2    = "C"      // pinningSP, out-of-pinned-SSA, +C
	ExpSphiC = "Sphi+C" // Sreedhar, pinningCSSA, pinningSP, out, +C

	// Table 3 (with renaming constraints).
	ExpLphiABIC  = "Lphi,ABI+C"  // pinningSP, pinningABI, pinningφ, out, +C
	ExpSphiLABIC = "Sphi+LABI+C" // Sreedhar, CSSA, SP, ABI, out, +C
	ExpLABIC     = "LABI+C"      // SP, ABI, out, +C
	ExpC3        = "C(naiveABI)" // SP, out, NaiveABI, +C

	// Table 4 (no +C: order-of-magnitude costs).
	ExpLphiABI = "Lphi,ABI" // SP, ABI, pinningφ, out
	ExpSphi    = "Sphi"     // Sreedhar, CSSA, SP, out, NaiveABI
	ExpLABI    = "LABI"     // SP, ABI, out (naive φ cost)

	// Extensions (not part of the paper's tables; see the ablation bench):
	// the [LIM2] definition pre-pinning pass, and ψ-SSA if-conversion.
	ExpPrePin = "Lphi,ABI,pre+C"
	ExpPsi    = "Lphi,ABI,psi+C"
)

// Configs maps experiment names to pass configurations.
var Configs = map[string]Config{
	ExpLphiC: {Optimize: true, PhiCoalesce: true, Chaitin: true},
	ExpC2:    {Optimize: true, Chaitin: true},
	ExpSphiC: {Optimize: true, Sreedhar: true, Chaitin: true},

	ExpLphiABIC:  {Optimize: true, ABI: true, PhiCoalesce: true, Chaitin: true},
	ExpSphiLABIC: {Optimize: true, Sreedhar: true, ABI: true, Chaitin: true},
	ExpLABIC:     {Optimize: true, ABI: true, Chaitin: true},
	ExpC3:        {Optimize: true, NaiveABI: true, Chaitin: true},

	ExpPrePin: {Optimize: true, ABI: true, PrePin: true, PhiCoalesce: true, Chaitin: true},
	ExpPsi:    {Optimize: true, Psi: true, ABI: true, PrePin: true, PhiCoalesce: true, Chaitin: true},

	ExpLphiABI: {Optimize: true, ABI: true, PhiCoalesce: true},
	ExpSphi:    {Optimize: true, Sreedhar: true, NaiveABI: true},
	ExpLABI:    {Optimize: true, ABI: true},
}
