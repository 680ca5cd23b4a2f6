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
// Measure is the repository's one repetition loop for timing a
// collective. The observation procedure, experiment.Probe, times every
// figure's, study's and tuner validation's collective through it, so
// the closed forms are always judged against one isolated operation's
// makespan, never against repetitions that overlap.
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
// replaced by the paper's defaults; the robustness knobs (OutlierMAD,
// Retries) default to off, leaving the measurement trajectory
// identical to the plain adaptive loop.
type Options struct {
	Confidence float64 // confidence level; default 0.95
	RelErr     float64 // target relative error of the CI; default 0.025
	MinReps    int     // repetitions before the stopping rule applies; default 5
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
}

// WithDefaults fills unset fields with the paper's values. It is the
// one defaulting of the repetition rule: Measure and the estimation
// harness's rounds both apply it.
func (o Options) WithDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.RelErr == 0 {
		o.RelErr = 0.025
	}
	if o.MinReps == 0 {
		o.MinReps = 5
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

// Measurement is the result of an adaptive measurement; all ranks
// receive identical values.
type Measurement struct {
	stats.Summary               // over the samples that survived rejection
	Samples       []float64     // all per-repetition durations in seconds (pre-rejection)
	Elapsed       time.Duration // virtual time the whole measurement consumed
	Converged     bool          // the CI met the RelErr target
	Reps          int           // repetitions actually run
	Retries       int           // re-measurement attempts used
	Rejected      int           // samples dropped by outlier rejection
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
// run records the sample and decides for every rank whether to repeat,
// back off and retry, or finish, and every rank follows that decision.
// The returned Samples slice is that one shared slice, the same on
// every rank; callers must treat it as read-only.
func Measure(r *mpi.Rank, designated int, timing Timing, opts Options, op func()) Measurement {
	cell := r.SharedCell()
	st, _ := cell.V.(*measureState)
	if st == nil {
		o := opts.WithDefaults()
		st = &measureState{opts: o, locals: make([]float64, r.Size()), budget: o.MaxReps, backoff: o.Backoff}
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
	for rep := 1; ; rep++ {
		t0 := r.Now()
		op()
		st.locals[r.Rank()] = (r.Now() - t0).Seconds()
		r.HardSync() // every rank has written its local duration, and starts the next repetition here
		if len(st.samples) < rep {
			st.record(designated, timing) // first rank past the sync
		}
		if st.done {
			break
		}
		if st.retry {
			// Non-converged attempt: back off (transient contention or a
			// degradation window may pass in virtual time) and re-measure.
			r.Sleep(st.sleep)
		}
	}

	if msp != 0 {
		tr.Annotate(msp, -1, -1, len(st.samples)) // bytes field reused as rep count
		tr.End(msp, r.Now())
	}
	return Measurement{
		Summary:   st.summary,
		Samples:   st.samples,
		Elapsed:   r.Now() - start,
		Converged: st.converged,
		Reps:      len(st.samples),
		Retries:   st.retries,
		Rejected:  st.rejected,
	}
}

// measureState is one Measure call's state, shared by every rank
// through the call's SharedCell.
type measureState struct {
	opts    Options
	locals  []float64     // per-rank durations of the current repetition
	samples []float64     // one sample per repetition, pre-rejection
	budget  int           // sample count at which the current attempt ends
	backoff time.Duration // pause before the next retry, doubling per retry

	// The decision every rank follows after a repetition.
	done  bool          // the measurement is over
	retry bool          // the attempt failed: sleep, then measure again
	sleep time.Duration // the retry's pause

	converged bool
	retries   int
	summary   stats.Summary // over the samples surviving rejection
	rejected  int
}

// record appends the repetition's sample and decides for every rank:
// finish once the CI has closed, or once the attempt's budget is spent
// and no retry is left; otherwise repeat, after a backoff when a new
// attempt starts.
func (st *measureState) record(designated int, timing Timing) {
	sample := st.locals[designated]
	if timing != RootTiming {
		sample = stats.Max(st.locals)
	}
	st.samples = append(st.samples, sample)
	st.retry = false
	o := st.opts
	if len(st.samples) >= o.MinReps {
		st.summary, st.rejected = stats.RobustSummarize(st.samples, o.Confidence, o.OutlierMAD)
		if st.summary.N >= o.MinReps && st.summary.RelErr() <= o.RelErr {
			st.converged, st.done = true, true
			return
		}
	}
	switch {
	case len(st.samples) < st.budget:
	case st.retries >= o.Retries:
		st.done = true
	default:
		st.retries++
		st.retry, st.sleep = true, st.backoff
		st.backoff *= 2
		st.budget = len(st.samples) + o.MaxReps
	}
}
