// Package mpib is the benchmarking library of the reproduction, the
// counterpart of MPIBlib [12]: it measures the execution time of
// communication operations with adaptive repetition until a Student-t
// confidence interval is tight enough (the paper uses confidence level
// 95% and relative error 2.5%), and offers the timing methods the
// paper discusses — measuring on one designated process (the sender /
// root side, "fast and quite accurate for collective operations on a
// small number of processors") or taking the maximum over all
// processes (the global makespan).
//
// Loop is the repository's one repetition rule: after each repetition
// it decides, for every rank, whether to repeat, to back off and retry,
// or to finish, and Result is what it reports per sample series. It has
// two drivers. Measure runs it over one series to time a collective:
// the observation procedure, experiment.Probe, times every figure's,
// study's and tuner validation's collective through Measure, so the
// closed forms are always judged against one isolated operation's
// makespan, never against repetitions that overlap. The estimation
// rounds of internal/estimate run it over one series per experiment.
package mpib

import (
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Timing selects how one repetition's duration is derived.
type Timing int

const (
	// RootTiming uses the interval observed on the designated rank, the
	// paper's sender-side method used for estimation experiments.
	RootTiming Timing = iota
	// MaxTiming uses the maximum interval over all ranks — the global
	// makespan, appropriate for observing collective operations.
	MaxTiming
)

// String returns the timing-method name.
func (t Timing) String() string {
	if t == RootTiming {
		return "root"
	}
	return "max"
}

// Options control the adaptive repetition loop. The zero value is
// replaced by the defaults: the paper's confidence level and relative
// error, from a minimum of two repetitions, so the interval rather than
// a count decides when a series stops; the robustness knobs (OutlierMAD,
// Retries) default to off, leaving the measurement trajectory
// identical to the plain adaptive loop.
type Options struct {
	Confidence float64 // confidence level; default 0.95
	RelErr     float64 // target relative error of the CI; default 0.025
	MinReps    int     // repetitions before the stopping rule applies; default 2, the fewest with a CI
	MaxReps    int     // hard cap per attempt; default 100

	// OutlierMAD, when positive, drops samples farther than this many
	// scaled MADs from the median before the stopping rule and the
	// final summary — so a single RTO-length spike from a lossy link
	// cannot drag the mean or keep the CI from closing. 0 disables
	// rejection.
	OutlierMAD float64

	// Retries bounds re-measurement attempts after a non-converged
	// attempt (CI still too wide after MaxReps): the ranks back off in
	// virtual time and run up to MaxReps further repetitions, keeping
	// all samples. 0 disables retries.
	Retries int

	// Backoff is the virtual-time pause before the first retry,
	// doubling per attempt; default 1ms when Retries > 0.
	Backoff time.Duration

	// invariant declares the measured op invariant, so that Measure
	// records a certified repetition's copies instead of simulating
	// them. Only Invariant sets it: the facade's users measure
	// arbitrary ops and cannot.
	invariant bool
}

// Invariant returns o with the measured op declared invariant: every
// run of it makes the same calls on every rank, given the same
// simulated state, whatever ran before. A fixed collective over fixed
// payloads is invariant; an op that counts its runs, or changes what it
// sends from one run to the next, is not. experiment.Probe and
// estimate.ScanGather declare their ops.
func Invariant(o Options) Options {
	o.invariant = true
	return o
}

// WithDefaults fills unset fields with the defaults. It is the
// one defaulting of the repetition rule: Loop.Init applies it, for
// Measure and for the estimation rounds alike.
func (o Options) WithDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.RelErr == 0 {
		o.RelErr = 0.025
	}
	if o.MinReps == 0 {
		o.MinReps = 2
	}
	if o.MaxReps == 0 {
		o.MaxReps = 100
	}
	if o.MaxReps < o.MinReps {
		o.MaxReps = o.MinReps
	}
	if o.Retries > 0 && o.Backoff <= 0 {
		o.Backoff = time.Millisecond
	}
	return o
}

// Result is one sample series' outcome under the repetition rule: its
// summary over the samples that survived outlier rejection, and how the
// rule reached it. A Measurement carries one; an estimation round
// returns one per experiment.
type Result struct {
	stats.Summary
	Converged bool // the CI met the RelErr target
	Reps      int  // repetitions actually run
	Retries   int  // re-measurement attempts used
	Rejected  int  // samples dropped by outlier rejection
}

// Measurement is the result of an adaptive measurement; all ranks
// receive identical values.
type Measurement struct {
	Result
	Samples []float64     // all per-repetition durations in seconds (pre-rejection)
	Elapsed time.Duration // virtual time the whole measurement consumed
}

// Action is what every rank of a measurement does after a repetition.
type Action int

const (
	Repeat Action = iota // run the next repetition
	Retry                // pause, then start a new attempt
	Finish               // the results are final
)

// Loop is the repetition rule over k sample series measured in
// lockstep: one repetition yields one sample per series, and after it
// Record decides for every rank whether to repeat, to back off and
// retry, or to finish. A loop writes its samples and results into the
// slices its owner hands to Init, and lives by value in the owner's
// shared state, so it allocates nothing beyond its samples' backing
// array.
type Loop struct {
	opts    Options
	samples [][]float64 // each series' samples, pre-rejection
	results []Result    // each series' result, final once the loop finishes
	reps    int         // repetitions recorded
	budget  int         // repetition count at which the current attempt ends
	retries int
	backoff time.Duration // pause before the next retry, doubling per retry
	next    Action
	pause   time.Duration // the retry's pause
}

// Init starts a loop over len(samples) series under opts, which it
// defaults. The series' samples start in one backing array of twice
// the minimum repetitions each (at most MaxReps); a series that
// outgrows its share moves to storage of its own. results receives
// one Result per series.
func (l *Loop) Init(opts Options, samples [][]float64, results []Result) {
	o := opts.WithDefaults()
	*l = Loop{opts: o, samples: samples, results: results, budget: o.MaxReps, backoff: o.Backoff}
	c := min(2*o.MinReps, o.MaxReps)
	backing := make([]float64, len(samples)*c)
	for i := range samples {
		samples[i] = backing[i*c : i*c : (i+1)*c]
	}
}

// Record appends one repetition's samples, xs[i] to series i, and
// decides what every rank does next. The attempt goes on while it has
// budget left and some series has not converged; a spent attempt is
// retried while retries remain and some series has not converged;
// otherwise the loop finishes. A series converges once at least
// MinReps samples survive rejection and its CI is within RelErr, so
// the series are summarized only from MinReps repetitions on.
func (l *Loop) Record(xs ...float64) {
	for i, x := range xs {
		l.samples[i] = append(l.samples[i], x)
	}
	l.reps++
	l.next = Repeat
	o := l.opts
	if l.reps < o.MinReps {
		return // the budget is at least MinReps
	}
	allConverged := true
	for i, series := range l.samples {
		s, rejected := stats.RobustSummarize(series, o.Confidence, o.OutlierMAD)
		ok := s.N >= o.MinReps && s.RelErr() <= o.RelErr
		l.results[i] = Result{Summary: s, Converged: ok, Reps: l.reps, Retries: l.retries, Rejected: rejected}
		if !ok {
			if l.reps < l.budget {
				return
			}
			allConverged = false
		}
	}
	if allConverged || l.retries >= o.Retries {
		l.next = Finish
		return
	}
	l.retries++
	l.next, l.pause = Retry, l.backoff
	l.backoff *= 2
	l.budget += o.MaxReps
}

// Next returns the decision of the last Record, and the pause that
// comes before the next attempt when it is Retry.
func (l *Loop) Next() (Action, time.Duration) { return l.next, l.pause }

// RecordCopies records xs again, as Record does, for as long as the
// loop asks to Repeat, and returns the number of copies it recorded:
// the replay of a certified repetition, which every later repetition
// would repeat bit for bit.
func (l *Loop) RecordCopies(xs ...float64) int {
	copies := 0
	for l.next == Repeat {
		l.Record(xs...)
		copies++
	}
	return copies
}

// Measure runs op repeatedly on all ranks until the confidence interval
// of its duration is within opts.RelErr, and returns the identical
// Measurement on every rank. op is invoked collectively: every rank
// must call Measure at the same point, and op must itself be a
// collective (or locally empty) action. The roles:
//
//   - every repetition starts with the ranks aligned: one HardSync
//     opens the measurement, and each repetition's closing HardSync
//     releases every rank at one instant to start the next;
//   - each rank times its local part of op;
//   - the per-repetition sample is either the designated rank's local
//     time (RootTiming) or the maximum over ranks (MaxTiming).
//
// The samples and the stopping decision live once, in the call's
// SharedCell: after a repetition's closing HardSync the first rank to
// run records the sample in the call's Loop, and every rank follows
// the loop's decision. The returned Samples slice is that one shared
// slice, the same on every rank; callers must treat it as read-only.
//
// The simulator is deterministic, so a repetition that starts from the
// state the one before it started from, translated in time, repeats it
// bit for bit. The recording rank certifies a repetition when
//
//   - opts declares op invariant (Invariant), and no observer is
//     installed, whose spans the copies would lack;
//   - the job has no fault plan and no crashed node;
//   - the repetition drew nothing from the escalation randomness and
//     called no SharedCell;
//   - the HardSyncs that opened and closed it were consecutive, and each
//     released the ranks with nothing else pending: no event queued, no
//     other process parked, no message undelivered;
//   - the closing one released the ranks in the order the opening one
//     did.
//
// Each later repetition would then start as this one did and run the
// same, so the rank records one copy of the sample per repetition the
// loop still asks for, and every rank skips the copies: it sleeps their
// time and moves its collective sequence on, and the network's counters
// take their traffic. The samples, the Result, Elapsed and everything
// the job does afterwards are exactly those of simulating every copy.
func Measure(r *mpi.Rank, designated int, timing Timing, opts Options, op func()) Measurement {
	cell := r.SharedCell()
	st, _ := cell.V.(*measureState)
	if st == nil {
		st = &measureState{locals: make([]float64, r.Size())}
		st.loop.Init(opts, st.samples[:], st.result[:])
		cell.V = st
	}

	r.HardSync()
	start := r.Now()
	// One measurement span on the designated rank's track: the
	// designated rank's collective spans (and, under those, the message
	// spans) nest inside it, so a flame view shows measurement →
	// collective → wire.
	var msp obs.SpanID
	tr := r.Observer()
	if tr != nil && r.Rank() == designated {
		msp = tr.Begin(obs.CatMeasure, "measure:"+timing.String(), designated, start)
	}
	replay := opts.invariant && tr == nil
	if replay && st.open.Syncs == 0 {
		// The first rank past the opening sync, which counts at least
		// one release, notes the state the first repetition starts from.
		st.open = r.SyncState()
	}
	for rep := 1; ; rep++ {
		t0, calls := r.Now(), r.Collectives()
		op()
		st.locals[r.Rank()] = (r.Now() - t0).Seconds()
		r.HardSync() // every rank has written its local duration, and starts the next repetition here
		if len(st.samples[0]) < rep {
			// The first rank past the sync records the repetition.
			sample := st.locals[designated]
			if timing != RootTiming {
				sample = stats.Max(st.locals)
			}
			st.loop.Record(sample)
			if replay {
				st.replay(r, sample)
			}
		}
		if k := st.copies; k > 0 {
			r.Skip(k, r.Now()-t0, r.Collectives()-calls)
			rep += k
		}
		act, pause := st.loop.Next()
		if act == Finish {
			break
		}
		if act == Retry {
			// Non-converged attempt: back off (transient contention or a
			// degradation window may pass in virtual time) and re-measure.
			r.Sleep(pause)
		}
	}

	if msp != 0 {
		tr.Annotate(msp, -1, -1, len(st.samples[0])) // bytes field reused as rep count
		tr.End(msp, r.Now())
	}
	return Measurement{Result: st.result[0], Samples: st.samples[0], Elapsed: r.Now() - start}
}

// measureState is one Measure call's state, shared by every rank
// through the call's SharedCell: one series under the repetition rule.
type measureState struct {
	loop    Loop
	locals  []float64    // per-rank durations of the current repetition
	samples [1][]float64 // the loop's one series, pre-rejection
	result  [1]Result    // the series' result

	open   mpi.SyncState // the job when the current repetition started
	copies int           // copies of the last repetition recorded, for every rank to skip
}

// replay runs on the rank that recorded a repetition, right after its
// closing sync, when the op is invariant and nothing observes the job.
// If the repetition is certified (see Measure), it records a copy of
// its sample for each repetition the loop still asks for, and adds the
// copies' traffic; every rank then skips the copies.
func (st *measureState) replay(r *mpi.Rank, sample float64) {
	open, shut := st.open, r.SyncState()
	st.open, st.copies = shut, 0
	if shut.Syncs != open.Syncs+1 || !shut.SameOrder || !mpi.Repeatable(open, shut) {
		return
	}
	st.copies = st.loop.RecordCopies(sample)
	r.Repeat(open, shut, st.copies)
	st.open = r.SyncState() // a retried attempt starts from the copies' end
}
