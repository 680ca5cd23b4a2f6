package estimate

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/simnet"
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
// Peers, and what they do. Most experiments are records: the initiator
// sends M bytes to each peer in turn, then receives their MBack-byte
// replies, the last peer's first, and each peer receives and replies,
// all under tag Tag. One peer makes a round trip, two a one-to-two
// experiment. An experiment that does something else keeps a Body,
// which its ranks run instead. The sample is the initiator's local
// elapsed time, unless the body assigns a custom sample through Custom.
// No other rank takes part.
//
// An Exp without Custom holds no rank-local state, so an estimator
// builds each round's experiments once, before mpi.Run, and every rank
// runs the same list. Every Exp is invariant, as mpib.Invariant defines
// it: it makes the same calls at every run, and talks only to the
// experiment's ranks, which is what lets runRounds record a certified
// repetition's copies instead of simulating them. What a record's
// ranks do, its peer count and sizes, is its signature, by which
// runRounds finds the records it has simulated before (see memo); an
// Exp with a Body has none.
type Exp struct {
	Initiator int
	// Peers are the experiment's other ranks; -1 marks an unused slot.
	Peers [2]int
	// M and MBack are a record's message and reply sizes in bytes, Tag
	// its messages' tag.
	M, MBack, Tag int
	// Body, when non-nil, replaces the record: the experiment's ranks
	// run it instead, each by its role.
	Body func(r *mpi.Rank)
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

// run runs rank r's part of e: its Body, or the record's messages. A
// rank outside the experiment falls through.
func (e *Exp) run(r *mpi.Rank) {
	if e.Body != nil {
		e.Body(r)
		return
	}
	switch me := r.Rank(); me {
	case e.Initiator:
		rs, n := e.ranks()
		for _, p := range rs[1:n] {
			r.Send(p, e.Tag, mpi.ZeroPayload(e.M))
		}
		for a := n - 1; a > 0; a-- {
			r.Recv(rs[a], e.Tag)
		}
	case e.Peers[0], e.Peers[1]:
		r.Recv(e.Initiator, e.Tag)
		r.Send(e.Initiator, e.Tag, mpi.ZeroPayload(e.MBack))
	}
}

// play runs rank r's part of experiment e in one repetition: it
// simulates e, or, when d is not negative, sleeps d, the time r's role
// took in an identical record that the plan simulated before. The
// tests wrap it to count and time the runs.
var play = func(r *mpi.Rank, e *Exp, d time.Duration) {
	if d >= 0 {
		r.Sleep(d)
		return
	}
	e.run(r)
}

// traffic is what record e adds to the network's counters: a message
// and a reply per peer.
func (e *Exp) traffic() simnet.Counters {
	_, n := e.ranks()
	return simnet.Counters{Messages: 2 * (n - 1), Bytes: int64(n-1) * int64(e.M+e.MBack)}
}

// expKey is what the simulator reads of a record on a single switch,
// as raw bits: its signature (the peer count and both sizes), the C
// and t of its ranks by role, and the L and β of each link its
// messages cross, from the initiator to each peer and back (the peers'
// links to each other carry nothing). Records with one key that start
// on idle ranks and links take the same time, role by role. It fits a
// map's inline key slot.
type expKey [16]uint64

// key returns e's key on the cluster cl.
func (e *Exp) key(cl *cluster.Cluster) (k expKey) {
	rs, n := e.ranks()
	k[0], k[1] = uint64(e.M)<<2|uint64(n), uint64(e.MBack)
	for a, rank := range rs[:n] {
		nd := &cl.Nodes[rank]
		k[2+2*a], k[3+2*a] = uint64(nd.C), math.Float64bits(nd.T)
	}
	i := rs[0]
	for a, p := range rs[1:n] {
		out, back := cl.Links[i][p], cl.Links[p][i]
		k[8+4*a], k[9+4*a] = uint64(out.L), math.Float64bits(out.Beta)
		k[10+4*a], k[11+4*a] = uint64(back.L), math.Float64bits(back.Beta)
	}
	return k
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
		if pl.rounds[s.round].sit(r, int(s.pos), int(s.exp)) {
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
	total, nexp := 0, 0
	for _, rd := range plan {
		for x := range rd.exps {
			rs, m := rd.exps[x].ranks()
			for _, rank := range rs[:m] {
				pl.first[rank+1]++
			}
			total += m
		}
		nexp += len(rd.exps)
	}
	// Lay the seats out rank by rank: first[i+1] holds the start of rank
	// i's seats while they are placed, advancing past each, so it ends
	// as the start of rank i+1's. The rounds' seat orders share one
	// array of processes; their experiments share one memo and one array
	// each of samples, summaries, series and series backing.
	procs := make([]*vtime.Proc, total)
	mm := newMemo(r, plan, nexp)
	slots, out := make([]float64, nexp), make([]RoundSummary, nexp)
	series, backing := make([][]float64, nexp), make([]float64, opts.Backing(nexp))
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
		m := len(rd.exps)
		st := &pl.rounds[k]
		*st = roundState{ranks: pos, procs: cut(&procs, pos), exps: rd.exps, slots: cut(&slots, m), out: cut(&out, m), closer: -1, memo: mm.round(m)}
		st.loop.Init(opts, cut(&series, m), st.out, cut(&backing, opts.Backing(m)))
	}
	pl.open(r, 0) // nothing precedes the first round
	return pl
}

// cut takes the first n elements off *s and returns them, capped.
func cut[T any](s *[]T, n int) []T {
	part := (*s)[:n:n]
	*s = (*s)[n:]
	return part
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

// memo is a plan's exact memo of clean records, kept on a single
// switch with no observer. The records with one key (expKey) form a
// class. While a class is not learned, the ranks of each of its records
// that the plan simulates note their elapsed times in it, and the
// certified close of a repetition, whose round's traffic holds nothing
// but messages and bytes, makes them learned. A record of a learned
// class that opens quiet is not simulated again: its ranks sleep their
// roles' times, the initiator publishes the learned sample, and the
// network's counters take its messages and bytes; when every
// experiment of its round is such a record, the round is whole, and no
// rank of it runs (see sit). At a quiet opening nothing is queued, in
// flight or pending, so the record's ranks and links are idle, and it
// runs exactly as the learned one ran; it draws nothing, as that one
// did not. On a fabric a round's experiments share lanes, and an
// observer's runs stay the fully simulated reference, so neither
// builds a memo. The arrays are plan-wide, and each round holds its
// part of them; a round of a plan without a memo holds nil slices.
type memo struct {
	exps    []memoExp      // each experiment, round by round
	learned []learnedClass // each class
}

// memoExp is one experiment's place in the memo.
type memoExp struct {
	class int32 // the record's class; -1 for an experiment with a Body
	hit   bool  // the experiment replays its class in the current repetition
}

// learnedClass is a class's times: each role's elapsed time, the
// initiator's first, learned once known is set.
type learnedClass struct {
	d     [3]time.Duration
	known bool
}

// newMemo classifies the records of plan, of nexp experiments, on r's
// cluster. It returns no memo on a multi-switch fabric, with an
// observer, or for a plan of fewer than two records, which has nothing
// to replay.
func newMemo(r *mpi.Rank, plan []round, nexp int) (mm memo) {
	cl := r.Cluster()
	if r.Observer() != nil || cl.Topo != nil && cl.Topo.HasFabric() {
		return mm
	}
	records := 0
	for _, rd := range plan {
		for x := range rd.exps {
			if rd.exps[x].Body == nil {
				records++
			}
		}
	}
	if records < 2 {
		return mm
	}
	mm.exps = make([]memoExp, nexp)
	classes := make(map[expKey]int32)
	i := 0
	for _, rd := range plan {
		for x := range rd.exps {
			c := int32(-1)
			if e := &rd.exps[x]; e.Body == nil {
				k := e.key(cl)
				var ok bool
				if c, ok = classes[k]; !ok {
					c = int32(len(classes))
					classes[k] = c
				}
			}
			mm.exps[i].class = c
			i++
		}
	}
	mm.learned = make([]learnedClass, len(classes))
	return mm
}

// round takes the memo's part for the next round, of nexp
// experiments: nil slices without a memo.
func (mm *memo) round(nexp int) memo {
	if mm.exps == nil {
		return memo{}
	}
	return memo{exps: cut(&mm.exps, nexp), learned: mm.learned}
}

// roundState is one round's state, shared by the round's ranks: its
// barrier, and its experiments' samples under one repetition loop,
// kept once rather than once per rank.
type roundState struct {
	// The round's barrier. Its parties are the round's ranks, plus one
	// arrival made once the previous round has ended. The release that
	// starts the round wakes the first rank of the seat order
	// (experiment by experiment, the initiator first), which wakes the
	// others in that order once it runs (start), or every rank at the
	// end of a whole round; every later release wakes the round's ranks
	// in the seat order. The rank whose arrival completes the barrier
	// resumes at its own place in that order, so a repetition opens and
	// closes with its ranks in the same order.
	ranks   int
	arrived int
	procs   []*vtime.Proc // the ranks' processes in seat order, set as they arrive
	exps    []Exp

	slots []float64 // each experiment's sample of the current repetition
	loop  mpib.Loop
	out   []RoundSummary // each experiment's result, once the loop finishes

	open   mpi.SyncState // the job at the opening of the current repetition; never Quiet after a retry's pause
	at     time.Duration // the instant of the release that opened the current repetition, before any pause
	copies int           // copies of the last repetition recorded, for every rank to skip
	closer int           // the seat whose arrival would have ended a whole round; -1 for a round that plays
	memo   memo          // the round's part of the plan's memo
}

// sit runs rank r's seat in the round, at position pos of its seat
// order, in experiment x. It waits at the round's barrier until the
// round starts, then plays its part of the experiment once per
// repetition, publishes the sample if r initiates it, and meets the
// round's other ranks at the barrier again. The last of them to arrive
// records the repetition in the round's loop and wakes them all, and
// every rank follows the loop's decision. sit reports whether r's
// arrival ended the round.
//
// The simulator is deterministic, so a repetition that opens as the one
// before it opened, translated in time, repeats it bit for bit. The rank
// whose arrival closes a repetition certifies it when
//
//   - no observer is installed, whose spans the copies would lack;
//   - the job has no fault plan and no crashed node;
//   - nothing drew from the escalation randomness or called a
//     SharedCell since the repetition opened;
//   - at its opening and at this close no event was queued but the
//     round's own wake-ups, every other process was parked and no
//     message was undelivered.
//
// A round's first repetition opens once its first seat runs, after
// whatever its release found queued, such as the rest of the previous
// round's ranks, has run; a later one opens at the release that closed
// the repetition before it. Each Exp is invariant, and every release
// wakes the ranks in the same order, so each later repetition would
// open as this one did and run the same. The rank records one copy of
// the round's samples per repetition the loop still asks for, and the
// network's counters take the copies' traffic. It wakes the round's
// ranks, in seat order, at the copies' end, close + copies·(close −
// open), instead of at the close, and each rank moves its collective
// sequence past the copies instead of sleeping through them. A
// certified repetition also teaches the plan's memo the times of the
// records it simulated, which the memo then replays (see memo).
//
// A round whose every experiment replays at its first opening, which is
// quiet, is whole: its first seat resolves it there, before it wakes
// anyone (start). Each record's learned initiator time is its sample;
// the loop records the repetition and its certified copies, and the
// network's counters take the records' traffic once per repetition,
// copies included. Every rank then wakes once, in seat order, at
// open + (1 + copies)·D, where D is the longest learned role time, and
// plays nothing. The rank whose arrival would have closed the
// repetition, the last in seat order of those whose role takes D, ends
// the round, at the instant it would have.
//
// A retry's pause needs no barrier after it: a repetition receives
// every message it sends, so no event wakes a rank of the round during
// the pause, and its ranks wake in the order they fell asleep, the
// order a release gives them. A repetition that a pause opens is never
// certified, and replays nothing.
func (st *roundState) sit(r *mpi.Rank, pos, x int) (ended bool) {
	e := &st.exps[x]
	rs, _ := e.ranks()
	role := 0
	for rs[role] != r.Rank() {
		role++
	}
	p := r.Proc()
	st.procs[pos] = p
	st.arrive(r, st.ranks+1)
	p.Park()
	if pos == 0 && st.start(r) {
		p.Park() // until the whole round's end
	}
	// A whole round's loop has decided already; a playing round's loop
	// asks for its first repetition.
	ended = pos == st.closer
	for act, pause := st.loop.Next(); act != mpib.Finish; act, pause = st.loop.Next() {
		if act == mpib.Retry {
			r.Sleep(pause)
		}
		t0, calls := r.Now(), r.Collectives()
		play(r, e, st.memo.learnedTime(x, role))
		if e.Initiator == r.Rank() {
			// Publish the sample: the elapsed time, or the custom
			// sub-interval the body wrote.
			v := (r.Now() - t0).Seconds()
			if e.Custom != nil {
				v = *e.Custom
			}
			st.slots[x] = v
		}
		if c := st.memo.learning(x); c != nil {
			c.d[role] = r.Now() - t0
		}
		ended = st.arrive(r, st.ranks)
		p.Park()
		r.SkipCollectives(st.copies * (r.Collectives() - calls))
	}
	return ended
}

// arrive counts an arrival, on rank r, at the round's barrier of
// parties parties; a rank of the round parks after its arrival. The
// arrival that brings the count to parties resets it and reports true.
// The one that starts the round wakes the round's first rank (start);
// one after a repetition records the repetition, certifies it and
// wakes the round's ranks.
func (st *roundState) arrive(r *mpi.Rank, parties int) bool {
	st.arrived++
	if st.arrived < parties {
		return false
	}
	st.arrived = 0
	if parties > st.ranks {
		r.Proc().WakeOrdered(st.procs[:1], r.Now())
		return true
	}
	st.loop.Record(st.slots...)
	st.certify(r, r.Now())
	return true
}

// start opens the round's first repetition on rank r, the first of the
// seat order, which the round's first release woke alone and which
// runs once everything that release found queued has run: it notes the
// job's state as the repetition's opening and decides what the
// repetition replays. It wakes the round's other ranks to play, or
// resolves a whole round (see sit) and reports true.
func (st *roundState) start(r *mpi.Rank) (whole bool) {
	st.open, st.at = r.ReleaseState(), r.Now()
	if !st.replay(r) {
		r.Proc().WakeOrdered(st.procs[1:], st.at)
		return false
	}
	var d time.Duration
	pos := 0
	for x := range st.exps {
		c := &st.memo.learned[st.memo.exps[x].class]
		st.slots[x] = c.d[0].Seconds()
		_, n := st.exps[x].ranks()
		for _, t := range c.d[:n] {
			if t >= d {
				d, st.closer = t, pos
			}
			pos++
		}
	}
	st.loop.Record(st.slots...)
	st.certify(r, st.at+d)
	return true
}

// certify runs on the rank that ends a repetition, whose samples the
// loop has recorded, with the instant close at which the repetition
// closes: now, or, for a whole round, the instant its last rank would
// arrive. It reads the job's state at the close; a whole round's
// opening already holds it, since until its close only the round's
// ranks would run, sleeping. If the repetition is certified (see sit),
// it teaches the memo, records a copy of the round's samples for each
// repetition the loop still asks for and adds the copies' traffic to
// the network's counters. If the loop goes on, it decides what the next
// repetition replays. It then wakes the round's ranks in seat order at
// the copies' end, which is the close when it recorded none.
func (st *roundState) certify(r *mpi.Rank, close time.Duration) {
	open, shut := st.open, r.ReleaseState()
	st.open, st.copies = shut, 0
	if mpi.Repeatable(open, shut) {
		st.learn(open.Net, shut.Net)
		if r.Observer() == nil {
			st.copies = st.loop.RecordCopies(nil, st.slots...)
			r.Repeat(open, shut, st.copies)
		}
	}
	act, _ := st.loop.Next()
	if act == mpib.Retry {
		st.open.Quiet = false // a pause, not a release, opens the next repetition
	}
	if act != mpib.Finish {
		st.replay(r)
	}
	st.at = close + time.Duration(st.copies)*(close-st.at)
	r.Proc().WakeOrdered(st.procs, st.at)
}

// learn teaches the memo, at the certified close of a repetition, the
// times the repetition's simulated records noted in their classes,
// provided the round's traffic from open to shut holds nothing but
// messages and bytes: no escalation, serialized transfer, loss or
// fabric hop, which a replay would not count.
func (st *roundState) learn(open, shut simnet.Counters) {
	shut.Messages, shut.Bytes = open.Messages, open.Bytes
	if st.memo.exps == nil || shut != open {
		return
	}
	for _, m := range st.memo.exps {
		if m.class >= 0 && !m.hit {
			st.memo.learned[m.class].known = true
		}
	}
}

// replay decides, at the opening of a repetition, which of the round's
// records replay their class instead of running: at a quiet opening,
// each one whose class is learned; otherwise none. The network's
// counters take the replayed records' traffic. It reports whether every
// experiment of the round replays.
func (st *roundState) replay(r *mpi.Rank) (all bool) {
	if st.memo.exps == nil {
		return false
	}
	var c simnet.Counters
	all = true
	for x := range st.memo.exps {
		m := &st.memo.exps[x]
		m.hit = st.open.Quiet && m.class >= 0 && st.memo.learned[m.class].known
		if !m.hit {
			all = false
			continue
		}
		t := st.exps[x].traffic()
		c.Messages += t.Messages
		c.Bytes += t.Bytes
	}
	if c.Messages > 0 {
		r.Repeat(mpi.SyncState{}, mpi.SyncState{Net: c}, 1)
	}
	return all
}

// learnedTime returns how long role role of experiment x sleeps in the
// current repetition, or -1 when the experiment runs.
func (mm *memo) learnedTime(x, role int) time.Duration {
	if mm.exps == nil || !mm.exps[x].hit {
		return -1
	}
	return mm.learned[mm.exps[x].class].d[role]
}

// learning returns the class in which a rank of experiment x notes its
// elapsed time: the class of a record the current repetition simulates
// while the class is not learned, or nil.
func (mm *memo) learning(x int) *learnedClass {
	if mm.exps == nil || mm.exps[x].class < 0 || mm.exps[x].hit {
		return nil
	}
	if c := &mm.learned[mm.exps[x].class]; !c.known {
		return c
	}
	return nil
}

// Experiment builders. A record needs no body; the others' bodies are
// run only by the experiment's ranks, each by its role, and any other
// rank would fall through. The Custom pointer convention: bodies that
// measure a sub-interval (e.g. only the send or only the receive) write
// it there.

// roundtripExp builds the i⇄j round-trip record: i sends mOut bytes, j
// replies with mBack bytes; measured on i (the paper's sender-side
// timing).
func roundtripExp(i, j, mOut, mBack, tag int) Exp {
	return Exp{Initiator: i, Peers: [2]int{j, -1}, M: mOut, MBack: mBack, Tag: tag}
}

// oneToTwoExp builds the i→(j,k) one-to-two record: i sends m bytes to
// j, then to k, and receives their mBack-byte replies; measured on i.
// The paper represents its time as T_scatter(m) + T_gather(mBack).
//
// The receive order is pinned — k's reply first — which makes k the
// designated branch of eq (6)/(9): k is sent to last and collected
// first, so the experiment's critical path runs through k
// deterministically (T = 2·(2C_i + M·t_i + L_ik + C_k + …)) instead of
// through whichever branch happens to win the paper's max. This is the
// "experiments designed very carefully" license of §IV: it turns the
// piecewise max into an exact linear equation.
func oneToTwoExp(i, j, k, m, mBack, tag int) Exp {
	return Exp{Initiator: i, Peers: [2]int{j, k}, M: m, MBack: mBack, Tag: tag}
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
