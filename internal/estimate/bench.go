package estimate

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/vtime"
)

// saturationCount is the number of back-to-back messages in the gap
// (saturation) experiments.
const saturationCount = 16

// groupTol is the relative tolerance of the logical-group detector:
// two probe signatures within this fraction of each other are
// statistically indistinguishable.
const groupTol = 0.04

// hockneySizes are the round-trip message sizes of the Hockney series
// estimation (per-pair least-squares line through them). They span
// 0–160 KiB so TCP-layer effects such as the large-message leap are
// absorbed into the fitted line, as the paper's series method does.
var hockneySizes = [...]int{0, 32 << 10, 96 << 10, 160 << 10}

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
	// TripletCoverage, when positive, samples the one-to-two
	// experiments so that every processor participates in at least
	// this many triplets instead of running all C(n,3) — the
	// runtime-estimation trade-off of §IV. Zero runs the full set.
	TripletCoverage int
	// Obs, when non-nil, receives the estimation's span trace: the
	// simulated universe's message/collective spans plus rank-0
	// estimation-phase spans on the global track and post-run solver
	// points. Nil disables observation.
	Obs *obs.Trace
}

// withDefaults fills in the unset options and refuses invalid ones:
// every estimator passes its options through here before it simulates
// anything.
func (o Options) withDefaults() (Options, error) {
	if o.MsgSize < 0 {
		return o, fmt.Errorf("estimate: MsgSize %d is negative; it is the variable-part message size in bytes (0 selects 32 KiB)", o.MsgSize)
	}
	if o.MsgSize == 0 {
		o.MsgSize = 32 << 10
	}
	return o, nil
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
	// triplets holds the records LMOX measured, round trips included,
	// which LMOOriginal solves; other estimators leave it nil.
	triplets []TripletTimes
}

// DroppedExp identifies a one-to-two experiment whose measurement was
// judged unreliable and therefore excluded from the redundancy
// averaging of eq (12).
type DroppedExp struct {
	Initiator int     // the experiment's initiator x
	Lo, Hi    int     // the two non-initiators of T_x{lo,hi}
	RelErr    float64 // the CI relative error that caused the drop
}

// Exp is one experiment of a round: its ranks, the Initiator and the
// Peers, run Body, and the sample is the initiator's local elapsed
// time, unless the body assigns a custom sample through Custom. No
// other rank runs Body or waits for it.
//
// An Exp without Custom holds no rank-local state, so an estimator
// builds each round's experiments once, before mpi.Run, and every rank
// runs the same list. Every Exp is invariant, as mpib.Invariant defines
// it: its body makes the same calls at every run, and talks only to
// the experiment's ranks, which is what lets runRounds record a
// certified repetition's copies instead of simulating them.
type Exp struct {
	Initiator int
	// Peers are the experiment's other ranks; -1 marks an unused slot.
	Peers [2]int
	Body  func(r *mpi.Rank)
	// Custom, when non-nil, replaces the elapsed time as the sample:
	// the initiator's body writes a sub-interval (e.g. only the send)
	// there, and the initiator alone reads it back when it publishes
	// its sample. Experiments with a custom sample may be built per
	// rank.
	Custom *float64
}

// ranks returns e's ranks, the initiator first, in rs[:n].
func (e *Exp) ranks() (rs [3]int, n int) {
	rs[0], n = e.Initiator, 1
	for _, p := range e.Peers {
		if p >= 0 {
			rs[n] = p
			n++
		}
	}
	return rs, n
}

// RoundSummary is one experiment's result from a round: the
// repetition rule's Result for the experiment's sample series. A
// round's []RoundSummary is shared and read-only; every experiment of
// a round reports the round's Retries.
type RoundSummary = mpib.Result

// round is one measurement round of an estimation plan: experiments on
// disjoint processor groups, built once before mpi.Run, and the
// function the round's finishing rank records their summaries with.
type round struct {
	exps   []Exp
	record func(s []RoundSummary)
}

// runRounds measures a plan's rounds in order; every rank of the job
// calls it, and it is the one runner of estimation rounds. A rank runs
// only the rounds it sits in, and in each only its own experiment; the
// rank whose arrival ends a round records the round's summaries and
// counts the round into rep. A round starts once its ranks have
// arrived and the round before it has ended, so rounds never overlap
// on shared links, and a world HardSync closes the plan. An adaptive
// estimator runs its passes as successive plans of one job: the first
// rank back from a plan's closing HardSync builds the next plan, once,
// from what the plans before it measured.
func runRounds(r *mpi.Rank, opts mpib.Options, plan []round, rep *Report) {
	cell := r.SharedCell()
	pl, _ := cell.V.(*planState)
	if pl == nil {
		pl = newPlanState(r, opts, plan, rep)
		cell.V = pl
	}
	me := r.Rank()
	for _, s := range pl.seats[pl.first[me]:pl.first[me+1]] {
		if pl.rounds[s.round].sit(r, int(s.pos), int(s.exp), &plan[s.round].exps[s.exp]) {
			pl.finish(r, int(s.round))
		}
	}
	r.HardSync()
}

// planState is one runRounds call's state, shared by every rank
// through the plan's SharedCell.
type planState struct {
	plan   []round
	rep    *Report
	rounds []roundState
	// A rank's seats are the (round, experiment) pairs it takes part
	// in, in round order: rank i's are seats[first[i]:first[i+1]].
	first []int
	seats []seat
}

// seat is one rank's place in a round: its experiment, and its
// position in the round's seat order.
type seat struct{ round, exp, pos int32 }

// newPlanState seats the ranks of r's job in the plan's rounds.
func newPlanState(r *mpi.Rank, opts mpib.Options, plan []round, rep *Report) *planState {
	n := r.Size()
	pl := &planState{plan: plan, rep: rep, rounds: make([]roundState, len(plan)), first: make([]int, n+1)}
	total := 0
	for _, rd := range plan {
		for x := range rd.exps {
			rs, m := rd.exps[x].ranks()
			for _, rank := range rs[:m] {
				pl.first[rank+1]++
			}
			total += m
		}
	}
	// Lay the seats out rank by rank: first[i+1] holds the start of rank
	// i's seats while they are placed, advancing past each, so it ends
	// as the start of rank i+1's. The rounds' seat orders share one
	// array of processes.
	procs := make([]*vtime.Proc, total)
	for i, sum := 1, 0; i <= n; i++ {
		sum, pl.first[i] = sum+pl.first[i], sum
	}
	pl.seats = make([]seat, total)
	for k, rd := range plan {
		pos := 0
		for x := range rd.exps {
			rs, m := rd.exps[x].ranks()
			for _, rank := range rs[:m] {
				pl.seats[pl.first[rank+1]] = seat{int32(k), int32(x), int32(pos)}
				pl.first[rank+1]++
				pos++
			}
		}
		pl.rounds[k].init(opts, len(rd.exps), procs[:pos:pos])
		procs = procs[pos:]
	}
	pl.open(r, 0) // nothing precedes the first round
	return pl
}

// record counts round k into the plan's report and hands its summaries
// to the round's record function.
func (pl *planState) record(k int) {
	s := pl.rounds[k].out
	pl.rep.count(s)
	pl.plan[k].record(s)
}

// count adds a finished round to the report: its experiments, their
// repetitions and non-converged measurements, and the round's retries.
func (rep *Report) count(s []RoundSummary) {
	for _, x := range s {
		rep.Experiments++
		rep.Repetitions += x.N
		if !x.Converged {
			rep.NonConverged++
		}
	}
	if len(s) > 0 {
		rep.Retries += s[0].Retries
	}
}

// finish ends round k on rank r, whose arrival ended it: it records the
// round and opens the next one.
func (pl *planState) finish(r *mpi.Rank, k int) {
	pl.record(k)
	pl.open(r, k+1)
}

// open makes round k's "previous round ended" arrival on rank r, which
// does not sit in the round. A round without ranks ends on the spot,
// and the next round gets the arrival.
func (pl *planState) open(r *mpi.Rank, k int) {
	for ; k < len(pl.rounds); k++ {
		if st := &pl.rounds[k]; st.ranks > 0 {
			st.arrive(r, st.ranks+1)
			return
		}
		pl.record(k)
	}
}

// roundState is one round's state, shared by the round's ranks: its
// barrier, and its experiments' samples under one repetition loop,
// kept once rather than once per rank.
type roundState struct {
	// The round's barrier. Its parties are the round's ranks, plus one
	// arrival made once the previous round has ended. Each release wakes
	// the round's ranks in one fixed order, the seat order: experiment by
	// experiment, the initiator first. The rank whose arrival completes
	// the barrier resumes at its own place in that order, so a
	// repetition opens and closes with its ranks in the same order.
	ranks   int
	arrived int
	procs   []*vtime.Proc // the ranks' processes in seat order, set as they arrive

	slots []float64 // each experiment's sample of the current repetition
	loop  mpib.Loop
	out   []RoundSummary // each experiment's result, once the loop finishes

	open   mpi.SyncState // the job at the release that opened the current repetition; never Quiet after a retry's pause
	copies int           // copies of the last repetition recorded, for every rank to skip
}

func (st *roundState) init(opts mpib.Options, nexp int, procs []*vtime.Proc) {
	*st = roundState{ranks: len(procs), procs: procs, slots: make([]float64, nexp), out: make([]RoundSummary, nexp)}
	st.loop.Init(opts, make([][]float64, nexp), st.out)
}

// sit runs rank r's seat in the round, at position pos of its seat
// order, in experiment x. It waits at the round's barrier until the
// round starts, then runs e's body once per repetition, publishes the
// sample if r initiates e, and meets the round's other ranks at the
// barrier again. The last of them to arrive records the repetition in
// the round's loop, and every rank follows the loop's decision. sit
// reports whether r's arrival ended the round.
//
// The simulator is deterministic, so a repetition that opens as the one
// before it opened, translated in time, repeats it bit for bit. The rank
// whose arrival closes a repetition certifies it when
//
//   - no observer is installed, whose spans the copies would lack;
//   - the job has no fault plan and no crashed node;
//   - nothing drew from the escalation randomness or called a
//     SharedCell since the release that opened the repetition;
//   - at that release and at this close no event was queued, every
//     other process was parked and no message was undelivered.
//
// Each Exp is invariant, and every release wakes the ranks in the same
// order, so each later repetition would open as this one did and run
// the same. The rank records one copy of the round's samples per
// repetition the loop still asks for, and the network's counters take
// the copies' traffic; every rank then skips the copies in wake order,
// as mpib.Measure's ranks do.
//
// A retry's pause needs no barrier after it: a repetition receives
// every message it sends, so no event wakes a rank of the round during
// the pause, and its ranks wake in the order they fell asleep, the
// order a release gives them. A repetition that a pause opens is never
// certified.
func (st *roundState) sit(r *mpi.Rank, pos, x int, e *Exp) (ended bool) {
	p := r.Proc()
	st.procs[pos] = p
	st.arrive(r, st.ranks+1)
	p.Park()
	for {
		t0, calls := r.Now(), r.Collectives()
		e.Body(r)
		if e.Initiator == r.Rank() {
			// Publish the sample: the elapsed time, or the custom
			// sub-interval the body wrote.
			v := (r.Now() - t0).Seconds()
			if e.Custom != nil {
				v = *e.Custom
			}
			st.slots[x] = v
		}
		last := st.arrive(r, st.ranks)
		p.Park()
		if k := st.copies; k > 0 {
			r.Skip(k, r.Now()-t0, r.Collectives()-calls)
		}
		switch act, pause := st.loop.Next(); act {
		case mpib.Finish:
			return last
		case mpib.Retry:
			r.Sleep(pause)
		}
	}
}

// arrive counts an arrival, on rank r, at the round's barrier of
// parties parties; a rank of the round parks after its arrival. The
// arrival that brings the count to parties resets it, releases the
// round's ranks and reports true. Before a repetition has run, the
// release notes the state the first repetition opens at; after one, it
// records the repetition and certifies it.
func (st *roundState) arrive(r *mpi.Rank, parties int) bool {
	st.arrived++
	if st.arrived < parties {
		return false
	}
	st.arrived = 0
	shut := r.Release(st.procs)
	if parties > st.ranks {
		st.open = shut
	} else {
		st.loop.Record(st.slots...)
		st.certify(r, shut)
	}
	return true
}

// certify runs on the rank whose arrival closed a repetition, at the
// release shut that closed it. If the repetition is certified (see
// sit), it records a copy of the round's samples for each repetition
// the loop still asks for and adds the copies' traffic to the network's
// counters.
func (st *roundState) certify(r *mpi.Rank, shut mpi.SyncState) {
	open := st.open
	st.open, st.copies = shut, 0
	if r.Observer() == nil && mpi.Repeatable(open, shut) {
		st.copies = st.loop.RecordCopies(st.slots...)
		r.Repeat(open, shut, st.copies)
	}
	if act, _ := st.loop.Next(); act == mpib.Retry {
		st.open.Quiet = false // a pause, not a release, opens the next repetition
	}
}

// Experiment bodies. Only the experiment's ranks run its body, each
// by its role; any other rank would fall through. The Custom pointer
// convention: bodies that measure a sub-interval (e.g. only the send
// or only the receive) write it there.

// roundtripExp builds the i⇄j round-trip: i sends mOut bytes, j replies
// with mBack bytes; measured on i (the paper's sender-side timing).
func roundtripExp(i, j, mOut, mBack, tag int) Exp {
	return Exp{Initiator: i, Peers: [2]int{j, -1}, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			r.Send(j, tag, mpi.ZeroPayload(mOut))
			r.Recv(j, tag)
		case j:
			r.Recv(i, tag)
			r.Send(i, tag, mpi.ZeroPayload(mBack))
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
	return Exp{Initiator: i, Peers: [2]int{j, k}, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			r.Send(j, tag, mpi.ZeroPayload(m))
			r.Send(k, tag, mpi.ZeroPayload(m))
			r.Recv(k, tag)
			r.Recv(j, tag)
		case j, k:
			r.Recv(i, tag)
			r.Send(i, tag, mpi.ZeroPayload(mBack))
		}
	}}
}

// saturationExp builds the gap experiment: i sends count messages of m
// bytes back to back; j acknowledges once all have arrived with an
// empty reply. The per-message gap is the sample divided by count
// (done by the caller).
func saturationExp(i, j, m, count, tag int) Exp {
	return Exp{Initiator: i, Peers: [2]int{j, -1}, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			buf := mpi.ZeroPayload(m)
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
	return Exp{Initiator: i, Peers: [2]int{j, -1}, Custom: custom, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			t0 := r.Now()
			r.Send(j, tag, mpi.ZeroPayload(m))
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
	return Exp{Initiator: i, Peers: [2]int{j, -1}, Custom: custom, Body: func(r *mpi.Rank) {
		switch r.Rank() {
		case i:
			r.Send(j, tag, mpi.ZeroPayload(m))
			r.Sleep(wait) // ample time for the echo to arrive
			t0 := r.Now()
			r.Recv(j, tag)
			*custom = (r.Now() - t0).Seconds()
		case j:
			r.Recv(i, tag)
			r.Send(i, tag, mpi.ZeroPayload(m))
		}
	}}
}
