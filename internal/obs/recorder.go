package obs

// Recorder is a Tracer that keeps everything it receives, for tests and
// programmatic inspection.
type Recorder struct {
	// Runs collects one entry per RunStart..RunEnd bracket.
	Runs []*RecordedRun
	// open is the run currently receiving events (nil between runs).
	open *RecordedRun
}

// RecordedRun is the event stream of one pipeline run.
type RecordedRun struct {
	Func   string
	Config string
	Before IRStat
	After  IRStat
	WallNS int64
	Events []*Event // completed passes in PassEnd order
	Ended  bool
}

// Replay re-emits every recorded run into tr, in recording order. The
// parallel batch driver uses it to merge per-worker recordings into one
// deterministic stream: each job records privately, and the recordings
// are replayed job by job once all workers are done. A nil tr is a
// no-op. Events are delivered by pointer and owned by tr afterwards, so
// a Recorder should be replayed into a consuming tracer only once.
func (r *Recorder) Replay(tr Tracer) {
	if tr == nil {
		return
	}
	for _, run := range r.Runs {
		tr.RunStart(run.Func, run.Config, run.Before)
		for _, ev := range run.Events {
			tr.PassEnd(ev)
		}
		if run.Ended {
			tr.RunEnd(run.Func, run.Config, run.After, run.WallNS)
		}
	}
}

func (r *Recorder) RunStart(fn, config string, before IRStat) {
	r.open = &RecordedRun{Func: fn, Config: config, Before: before}
	r.Runs = append(r.Runs, r.open)
}

func (r *Recorder) PassEnd(ev *Event) {
	if r.open != nil {
		r.open.Events = append(r.open.Events, ev)
	}
}

func (r *Recorder) RunEnd(fn, config string, after IRStat, wallNS int64) {
	if r.open != nil {
		r.open.After = after
		r.open.WallNS = wallNS
		r.open.Ended = true
		r.open = nil
	}
}
