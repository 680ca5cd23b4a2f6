package estimate

import (
	"time"

	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Options configure an estimation procedure.
type Options struct {
	// Mpib controls the per-experiment repetition loop. The paper's
	// defaults (95% confidence, 2.5% relative error) apply when zero.
	Mpib mpib.Options
	// MsgSize is the non-empty message size used by the variable-part
	// experiments. It must avoid the platform's irregularity regions;
	// the paper selects a medium size after a preliminary scan.
	// Default 32 KiB.
	MsgSize int
	// Parallel schedules non-overlapping experiments of one round
	// concurrently, the paper's estimation-time optimization. Serial
	// otherwise.
	Parallel bool
	// SaturationCount is the number of back-to-back messages in the
	// gap (saturation) experiment. Default 16.
	SaturationCount int
	// TripletCoverage, when positive, samples the one-to-two
	// experiments so that every processor participates in at least
	// this many triplets instead of running all C(n,3) — the
	// runtime-estimation trade-off of §IV. Zero runs the full set.
	TripletCoverage int
	// GroupTol is the relative tolerance of the logical-group detector:
	// two probe signatures within this fraction of each other are
	// statistically indistinguishable. Default 4%.
	GroupTol float64
	// GroupBlind forces the logical-group detector to ignore the
	// cluster's topology hint and discover groups by probing alone.
	GroupBlind bool
	// HockneySizes are the round-trip message sizes of the Hockney
	// series estimation (per-pair least-squares line through them).
	// The default spans 0–160 KiB so TCP-layer effects such as the
	// large-message leap are absorbed into the fitted line, as the
	// paper's series method does.
	HockneySizes []int
	// Obs, when non-nil, receives the estimation's span trace: the
	// simulated universe's message/collective spans plus rank-0
	// estimation-phase spans on the global track and post-run solver
	// points. Nil disables observation.
	Obs *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.MsgSize == 0 {
		o.MsgSize = 32 << 10
	}
	if o.SaturationCount == 0 {
		o.SaturationCount = 16
	}
	if o.GroupTol == 0 {
		o.GroupTol = 0.04
	}
	if len(o.HockneySizes) == 0 {
		o.HockneySizes = []int{0, 32 << 10, 96 << 10, 160 << 10}
	}
	return o
}

// withObs returns cfg with the estimation's observer installed,
// unless the caller already supplied one on the mpi side.
func (o Options) withObs(cfg mpi.Config) mpi.Config {
	if cfg.Obs == nil {
		cfg.Obs = o.Obs
	}
	return cfg
}

// obsBegin opens a rank-0 estimation-phase span on the global track;
// on other ranks (or with observation disabled) it returns 0, which
// obsEnd treats as a no-op. Pinning the phase narrative to rank 0
// keeps the global track a single sequential story.
func obsBegin(r *mpi.Rank, name string) obs.SpanID {
	if r.Rank() != 0 {
		return 0
	}
	return r.Observer().Begin(obs.CatEstimate, name, obs.GlobalTrack, r.Now())
}

// obsEnd closes a span opened by obsBegin.
func obsEnd(r *mpi.Rank, id obs.SpanID) {
	if id != 0 {
		r.Observer().End(id, r.Now())
	}
}

// Report summarizes an estimation procedure's cost (the paper's §IV
// efficiency concern) and, on faulty platforms, how gracefully the
// procedure degraded.
type Report struct {
	Cost        time.Duration // total virtual time the estimation took
	Experiments int           // number of distinct experiments performed
	Repetitions int           // total repetitions across experiments

	// Robustness accounting (all zero on a clean run).
	Retries      int          // re-measurement attempts across all rounds
	NonConverged int          // measurements whose CI missed the target
	Dropped      []DroppedExp // experiments excluded from eq-(12) averaging
	// Confidence[x], when non-nil, is the fraction of processor x's
	// redundant triplet contributions that survived dropping (1 = all).
	Confidence []float64
}

// DroppedExp identifies a one-to-two experiment whose measurement was
// judged unreliable and therefore excluded from the redundancy
// averaging of eq (12).
type DroppedExp struct {
	Initiator int     // the experiment's initiator x
	Lo, Hi    int     // the two non-initiators of T_x{lo,hi}
	RelErr    float64 // the CI relative error that caused the drop
}

// Exp is one experiment of a round: Body runs on every rank (inactive
// ranks do nothing inside it) and the sample is the initiator's local
// elapsed time, unless the body assigns a custom sample through Custom.
//
// An Exp without Custom holds no rank-local state, so an estimator
// builds each round's experiments once, before mpi.Run, and every rank
// runs the same list.
type Exp struct {
	Initiator int
	Body      func(r *mpi.Rank)
	// Custom, when non-nil, replaces the elapsed time as the sample:
	// the initiator's body writes a sub-interval (e.g. only the send)
	// there, and the initiator alone reads it back when it publishes
	// its sample. Experiments with a custom sample may be built per
	// rank.
	Custom *float64
}

// RoundSummary is one experiment's result from measureRound: its
// sample summary (over the samples surviving outlier rejection) plus
// the robustness metadata the degradation-aware estimators consume.
// measureRound returns one []RoundSummary to every rank of the round;
// it is shared and read-only.
type RoundSummary struct {
	stats.Summary
	Converged bool // the CI met the RelErr target
	Reps      int  // repetitions actually run
	Rejected  int  // samples dropped by outlier rejection
	Retries   int  // re-measurement attempts of the round (same for all its experiments)
}

// measureRound runs a set of experiments on mutually disjoint processor
// groups simultaneously, repeating until every experiment's
// initiator-side sample has converged per opts, and returns one summary
// per experiment. With opts.Retries > 0, a round in which some
// experiment's CI failed to close within MaxReps is re-measured after a
// doubling virtual-time backoff, up to the bound.
//
// The round's bookkeeping exists once, in its SharedCell, not once per
// rank: each initiator publishes its sample there, and after a
// repetition's closing HardSync the first rank to run records the
// repetition and decides for every rank whether to repeat, back off
// and retry, or finish. Every rank follows that decision and returns
// the same read-only summaries. The kernel runs one process at a time,
// and the decision is the one every rank would derive from the same
// samples, so the virtual-time trajectory is that of independent
// per-rank decisions, while the bookkeeping costs O(experiments) per
// repetition instead of O(experiments × ranks).
func measureRound(r *mpi.Rank, opts mpib.Options, exps []Exp) []RoundSummary {
	cell := r.SharedCell()
	st, _ := cell.V.(*roundState)
	if st == nil {
		st = newRoundState(opts.WithDefaults(), len(exps))
		cell.V = st
	}
	// The experiment this rank initiates, if any: the groups are
	// disjoint, so it initiates at most one.
	mine := -1
	for i, e := range exps {
		if e.Initiator == r.Rank() {
			mine = i
		}
	}
	for rep := 1; ; rep++ {
		r.HardSync()
		t0 := r.Now()
		for _, e := range exps {
			e.Body(r)
		}
		if mine >= 0 {
			// Publish the sample: the elapsed time, or the custom
			// sub-interval the body wrote.
			v := (r.Now() - t0).Seconds()
			if c := exps[mine].Custom; c != nil {
				v = *c
			}
			st.slots[mine] = v
		}
		r.HardSync()
		if st.reps < rep {
			st.record() // first rank past the sync
		}
		switch st.next {
		case roundFinish:
			return st.out
		case roundRetry:
			r.Sleep(st.sleep)
		}
	}
}

// round is one measurement round of an estimation plan: experiments on
// disjoint processor groups, built once before mpi.Run and run by every
// rank, and the function rank 0 records their summaries with.
type round struct {
	exps   []Exp
	record func(s []RoundSummary)
}

// runRounds measures a plan's rounds in order on every rank. Rank 0
// alone records each round's summaries and counts its experiments and
// repetitions into rep.
func runRounds(r *mpi.Rank, opts mpib.Options, plan []round, rep *Report) {
	for _, rd := range plan {
		s := measureRound(r, opts, rd.exps)
		if r.Rank() != 0 {
			continue
		}
		for _, x := range s {
			rep.Experiments++
			rep.Repetitions += x.N
		}
		rd.record(s)
	}
}

// roundAction is the decision every rank of a round follows after a
// repetition.
type roundAction int

const (
	roundRepeat roundAction = iota
	roundRetry              // sleep st.sleep, then start a new attempt
	roundFinish             // return st.out
)

// roundState is one measureRound call's state, shared by every rank
// through the round's SharedCell.
type roundState struct {
	opts    mpib.Options
	slots   []float64   // each experiment's sample of the current repetition
	samples [][]float64 // each experiment's samples, pre-rejection
	reps    int         // repetitions recorded
	budget  int         // repetition count at which the current attempt ends
	retries int
	backoff time.Duration // pause before the next retry, doubling per retry
	next    roundAction
	sleep   time.Duration
	out     []RoundSummary
}

func newRoundState(opts mpib.Options, nexp int) *roundState {
	st := &roundState{
		opts:    opts,
		slots:   make([]float64, nexp),
		samples: make([][]float64, nexp),
		budget:  opts.MaxReps,
		backoff: opts.Backoff,
		out:     make([]RoundSummary, nexp),
	}
	// The experiments' samples start in one backing array sized for
	// twice the minimum repetitions; an experiment that outgrows its
	// share moves to storage of its own.
	c := min(2*opts.MinReps, opts.MaxReps)
	backing := make([]float64, nexp*c)
	for i := range st.samples {
		st.samples[i] = backing[i*c : i*c : (i+1)*c]
	}
	return st
}

// record appends the repetition's samples and decides for every rank.
// The attempt goes on while it has budget left and some experiment has
// not converged; a spent attempt is retried while retries remain and
// some experiment has not converged; otherwise the round finishes with
// st.out.
func (st *roundState) record() {
	o := st.opts
	for i, v := range st.slots {
		st.samples[i] = append(st.samples[i], v)
	}
	st.reps++
	st.next = roundRepeat
	allConverged := true
	for i, xs := range st.samples {
		s, rejected := stats.RobustSummarize(xs, o.Confidence, o.OutlierMAD)
		ok := s.N >= o.MinReps && s.RelErr() <= o.RelErr
		st.out[i] = RoundSummary{Summary: s, Converged: ok, Reps: st.reps, Rejected: rejected, Retries: st.retries}
		if !ok {
			if st.reps < st.budget {
				return
			}
			allConverged = false
		}
	}
	if allConverged || st.retries >= o.Retries {
		st.next = roundFinish
		return
	}
	st.retries++
	st.next, st.sleep = roundRetry, st.backoff
	st.backoff *= 2
	st.budget += o.MaxReps
}

// Experiment bodies. Every body is written so that exactly the ranks of
// its processor group act; all other ranks fall through immediately.
// The Custom pointer convention: bodies that measure a sub-interval
// (e.g. only the send or only the receive) write it there.

// zeroPayload backs every experiment payload up to its size. Nothing
// writes it: the simulator reads only a payload's length, and nothing
// writes a point-to-point payload after Send.
var zeroPayload [256 << 10]byte

// payload returns an m-byte message for an experiment body: a slice of
// zeroPayload, or a fresh buffer for sizes beyond it.
func payload(m int) []byte {
	if m <= len(zeroPayload) {
		return zeroPayload[:m:m]
	}
	return make([]byte, m)
}

// roundtripExp builds the i⇄j round-trip: i sends mOut bytes, j replies
// with mBack bytes; measured on i (the paper's sender-side timing).
func roundtripExp(i, j, mOut, mBack, tag int) Exp {
	return Exp{Initiator: i, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			r.Send(j, tag, payload(mOut))
			r.Recv(j, tag)
		case j:
			r.Recv(i, tag)
			r.Send(i, tag, payload(mBack))
		}
	}}
}

// oneToTwoExp builds the i→(j,k) one-to-two experiment: i sends m bytes
// to j, then to k, and receives their mBack-byte replies; measured on
// i. The paper represents its time as T_scatter(m) + T_gather(mBack).
//
// The receive order is pinned — k's reply first — which makes k the
// designated branch of eq (6)/(9): k is sent to last and collected
// first, so the experiment's critical path runs through k
// deterministically (T = 2·(2C_i + M·t_i + L_ik + C_k + …)) instead of
// through whichever branch happens to win the paper's max. This is the
// "experiments designed very carefully" license of §IV: it turns the
// piecewise max into an exact linear equation.
func oneToTwoExp(i, j, k, m, mBack, tag int) Exp {
	return Exp{Initiator: i, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			r.Send(j, tag, payload(m))
			r.Send(k, tag, payload(m))
			r.Recv(k, tag)
			r.Recv(j, tag)
		case j, k:
			r.Recv(i, tag)
			r.Send(i, tag, payload(mBack))
		}
	}}
}

// saturationExp builds the gap experiment: i sends count messages of m
// bytes back to back; j acknowledges once all have arrived with an
// empty reply. The per-message gap is the sample divided by count
// (done by the caller).
func saturationExp(i, j, m, count, tag int) Exp {
	return Exp{Initiator: i, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			buf := payload(m)
			for c := 0; c < count; c++ {
				r.Send(j, tag, buf)
			}
			r.Recv(j, tag)
		case j:
			for c := 0; c < count; c++ {
				r.Recv(i, tag)
			}
			r.Send(i, tag, nil)
		}
	}}
}

// sendOverheadExp measures o_s(m): the time the Send call occupies the
// sender, via the round-trip with an empty reply; the custom sample is
// the send duration alone.
func sendOverheadExp(i, j, m, tag int) Exp {
	custom := new(float64)
	return Exp{Initiator: i, Custom: custom, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			t0 := r.Now()
			r.Send(j, tag, payload(m))
			*custom = (r.Now() - t0).Seconds()
			r.Recv(j, tag)
		case j:
			r.Recv(i, tag)
			r.Send(i, tag, nil)
		}
	}}
}

// recvOverheadExp measures o_r(m): i sends m bytes, j replies m bytes;
// i waits long enough for the reply to be waiting, then times the
// receive alone (the paper's delayed-receive experiment).
func recvOverheadExp(i, j, m int, wait time.Duration, tag int) Exp {
	custom := new(float64)
	return Exp{Initiator: i, Custom: custom, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			r.Send(j, tag, payload(m))
			r.Sleep(wait) // ample time for the echo to arrive
			t0 := r.Now()
			r.Recv(j, tag)
			*custom = (r.Now() - t0).Seconds()
		case j:
			r.Recv(i, tag)
			r.Send(i, tag, payload(m))
		}
	}}
}
