package estimate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Test-side variants of an experiment for the replay oracle. Each
// keeps a body, so it has no signature and never replays from the
// memo; the body runs the plain experiment between the variant's own
// steps, and makes the same calls at every run. What they leave behind,
// or find, decides whether a repetition can be certified.
const (
	bodyPlain   = iota
	bodyCell    // the initiator calls a SharedCell at every run
	bodyPending // the initiator ends each run with a 64 KiB message to its first peer, which the peer awaits for up to a millisecond at the start of each run; the last one stays
	bodyLead    // the initiator starts each run awaiting a message for up to a millisecond; one, sent before the plan, waits for the first run, so later runs take longer
	bodyOrder   // the initiator sleeps a microsecond for each rank of the round that started the run before it: the run sees the order of its release
)

// leadTag and pendingTag are the user tags of the variants' messages,
// above every experiment's tag; pendingSize is the size of bodyPending's
// messages, whose last one may still hold its link when the next round
// opens.
const leadTag, pendingTag, pendingSize = 100, 101, 64 << 10

// wrapPlays wraps every run of an experiment in w until the returned
// function restores play: w runs the experiment by calling run.
func wrapPlays(w func(r *mpi.Rank, e *Exp, d time.Duration, run func())) (restore func()) {
	orig := play
	play = func(r *mpi.Rank, e *Exp, d time.Duration) { w(r, e, d, func() { orig(r, e, d) }) }
	return func() { play = orig }
}

// runLog is one run of a round's experiments, over the round's ranks:
// when the first began and the last ended, the job's escalation draws
// then, and how many of the round's experiments the run simulated and
// replayed from the memo.
type runLog struct {
	start, close   time.Duration
	draws0, draws1 int
	started        int // the round's ranks that have started the run
	simulated, hit int
}

// playLog is what a replay-oracle job's plan played, hit or simulated.
type playLog struct {
	at     map[*Exp][2]int // each experiment of the plan: its round and index
	played [][]int         // per round and rank: the runs the rank played
	before []int           // per rank: the round's ranks that started the rank's current run before it
	plays  [][]int         // per round and experiment: the runs its initiator played
	runs   [][]int         // per round and experiment: the runs its initiator simulated
	logs   [][]runLog      // per round: each run
}

func newPlayLog(specs [][]expSpec, n int) *playLog {
	lg := &playLog{at: map[*Exp][2]int{}, before: make([]int, n)}
	for _, rd := range specs {
		lg.played = append(lg.played, make([]int, n))
		lg.plays = append(lg.plays, make([]int, len(rd)))
		lg.runs = append(lg.runs, make([]int, len(rd)))
		lg.logs = append(lg.logs, nil)
	}
	return lg
}

// play logs rank r's run of experiment e, which sleeps d when it
// replays, and runs it.
func (lg *playLog) play(r *mpi.Rank, e *Exp, d time.Duration, run func()) {
	at, ok := lg.at[e]
	if !ok {
		run() // the round after the plan
		return
	}
	ri, x, me := at[0], at[1], r.Rank()
	k := lg.played[ri][me]
	lg.played[ri][me]++
	if k == len(lg.logs[ri]) {
		lg.logs[ri] = append(lg.logs[ri], runLog{})
	}
	l := &lg.logs[ri][k]
	if l.started == 0 {
		l.start, l.draws0 = r.Now(), r.SyncState().Draws
	}
	lg.before[me] = l.started
	l.started++
	if me == e.Initiator {
		lg.plays[ri][x]++
		if d < 0 {
			lg.runs[ri][x]++
			l.simulated++
		} else {
			l.hit++
		}
	}
	run()
	l = &lg.logs[ri][k]
	l.close, l.draws1 = max(l.close, r.Now()), max(l.draws1, r.SyncState().Draws)
}

// replayRoundsJob is what a replay-oracle job leaves: each round's
// summaries, the summaries of a round run after the plan, the job's
// duration, traffic, escalation draws and SharedCell calls, and every
// rank's collective count.
type replayRoundsJob struct {
	sums, after  [][]RoundSummary
	dur          time.Duration
	net          simnet.Counters
	draws, cells int
	colls        []int
}

// variantRounds builds the plan of specs: records, with echo replies
// for the one-to-two experiments (two flows into the initiator at
// once, which draw from the escalation randomness under LAM), and
// bodies for the experiments of the other kinds and for the variants.
// It counts each rank's SharedCell calls in cells.
func variantRounds(specs [][]expSpec, variant map[[2]int]int, job *replayRoundsJob, cells []int, lg *playLog) []round {
	var plan []round
	for ri, rd := range specs {
		exps := make([]Exp, len(rd))
		for x, sp := range rd {
			e := sp.build(x)
			if sp.kind == 1 {
				e.MBack = sp.m
			}
			if kind := variant[[2]int{ri, x}]; kind != bodyPlain {
				e = Exp{Initiator: e.Initiator, Peers: e.Peers, Body: variantBody(e, sp, kind, cells, lg), Custom: e.Custom}
			}
			exps[x] = e
		}
		plan = append(plan, round{exps, func(s []RoundSummary) { job.sums = append(job.sums, s) }})
	}
	return plan
}

// variantBody returns the body of experiment e's variant kind.
func variantBody(e Exp, sp expSpec, kind int, cells []int, lg *playLog) func(r *mpi.Rank) {
	return func(r *mpi.Rank) {
		me := r.Rank()
		init := me == sp.ranks[0]
		switch {
		case kind == bodyOrder && init:
			r.Sleep(time.Duration(lg.before[me]) * time.Microsecond)
		case kind == bodyLead && init:
			r.RecvTimeout(mpi.AnySource, leadTag, time.Millisecond)
		case kind == bodyPending && me == sp.ranks[1]:
			r.RecvTimeout(sp.ranks[0], pendingTag, time.Millisecond)
		}
		e.run(r)
		switch {
		case kind == bodyCell && init:
			r.SharedCell()
			cells[me]++
		case kind == bodyPending && init:
			r.Send(sp.ranks[1], pendingTag, mpi.ZeroPayload(pendingSize))
		}
	}
}

// runReplayRounds runs specs as one plan, then a round of round trips
// and a Barrier, and reports what the job left and what its plan
// played. With lead, the rank after the lead experiment's initiator
// sends it a message before the plan.
func runReplayRounds(t *testing.T, cfg mpi.Config, opts mpib.Options, specs [][]expSpec, variant map[[2]int]int, lead int) (replayRoundsJob, *playLog) {
	t.Helper()
	n := cfg.Cluster.N()
	job := replayRoundsJob{colls: make([]int, n)}
	cells := make([]int, n)
	lg := newPlayLog(specs, n)
	plan := variantRounds(specs, variant, &job, cells, lg)
	for ri := range plan {
		for x := range plan[ri].exps {
			lg.at[&plan[ri].exps[x]] = [2]int{ri, x}
		}
	}
	defer wrapPlays(lg.play)()
	var after []round
	var exps []Exp
	for i := 0; i+1 < n; i += 2 {
		exps = append(exps, roundtripExp(i, i+1, 1<<10, 1<<10, i))
	}
	after = append(after, round{exps, func(s []RoundSummary) { job.after = append(job.after, s) }})
	var rep Report
	res, err := mpi.Run(cfg, func(r *mpi.Rank) {
		if lead >= 0 && r.Rank() == (lead+1)%n {
			r.Send(lead, leadTag, nil)
		}
		r.Sleep(time.Millisecond) // the lead message arrives before any round starts
		runRounds(r, opts, plan, &rep)
		// The bodies' SharedCell calls ran on their initiators only: the
		// other ranks catch up, so that every rank's next call takes the
		// same cell.
		for c := cells[r.Rank()]; c < slices.Max(cells); c++ {
			r.SharedCell()
		}
		runRounds(r, opts, after, &rep)
		r.Barrier()
		job.colls[r.Rank()] = r.Collectives()
		if r.Rank() == 0 {
			s := r.SyncState()
			job.draws, job.cells = s.Draws, s.Cells
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	job.dur, job.net = res.Duration, res.Net
	return job, lg
}

// hetCluster draws an n-node single switch of repeated node types, two
// of which share C and differ in t, whose pairs are joined by one of
// two link specs, drawn per pair, as cluster.Table1Hetero varies its
// links by pair.
func hetCluster(n int, rng *rand.Rand) *cluster.Cluster {
	types := []cluster.NodeSpec{
		{C: 50 * time.Microsecond, T: 4e-9},
		{C: 50 * time.Microsecond, T: 8e-9},
		{C: 80 * time.Microsecond, T: 4e-9},
	}
	links := []cluster.LinkSpec{{L: 40 * time.Microsecond, Beta: 1e8}, {L: 60 * time.Microsecond, Beta: 7e7}}
	cl := cluster.Homogeneous(n, types[0], links[0])
	for i := range cl.Nodes {
		tp := types[rng.Intn(len(types))]
		cl.Nodes[i].C, cl.Nodes[i].T = tp.C, tp.T
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				cl.Links[i][j], cl.Links[j][i] = links[1], links[1]
			}
		}
	}
	return cl
}

// repeatedRounds draws a plan for the memo's cases: 4–9 rounds of
// experiments on disjoint ranks of an n-rank job, mostly round trips
// and one-to-two records of 1 or 32 KiB, so that records repeat across
// rounds, and a custom-sample body one time in six. One round in three
// holds a single round trip between neighbours 2i and 2i+1, which a
// fat-tree's edge switch joins.
func repeatedRounds(rng *rand.Rand, n int) [][]expSpec {
	sizes := []int{1 << 10, 32 << 10}
	rounds := make([][]expSpec, 4+rng.Intn(6))
	for ri := range rounds {
		if rng.Intn(3) == 0 {
			i := 2 * rng.Intn(n/2)
			rounds[ri] = []expSpec{{kind: 0, ranks: [3]int{i, i + 1}, m: sizes[rng.Intn(2)]}}
			continue
		}
		free := rng.Perm(n)
		for want := 1 + rng.Intn(4); len(rounds[ri]) < want && len(free) >= 3; {
			s := expSpec{kind: rng.Intn(2), m: sizes[rng.Intn(2)]}
			if rng.Intn(6) == 0 {
				s.kind = 2 + rng.Intn(2)
			}
			need := 2
			if s.kind == 1 {
				need = 3
			}
			copy(s.ranks[:], free[:need])
			free = free[need:]
			rounds[ri] = append(rounds[ri], s)
		}
	}
	return rounds
}

// TestRoundReplayMatchesSimulation runs the plans of the round oracle's
// seeded cases twice: without an observer, so that runRounds records a
// certified repetition's copies instead of simulating them and replays
// the records its memo has learned, and with one, which simulates every
// repetition of every experiment. A third of the cases run on a 16-host
// fat-tree instead of one switch, and a third on a single switch of
// repeated node types and per-pair links (hetCluster). The one-to-two
// records echo their messages, so that under LAM their replies draw
// from the escalation randomness, and some experiments take a test-side
// variant, whose body refuses or delays certification. Each round's
// summaries, the summaries of a round run after the plan, the job's
// duration, traffic and escalation draws and every rank's collective
// count must be identical.
//
// Where the replayed job played fewer runs than a round recorded, the
// runs' times must account for the copies exactly: after a certified
// repetition, whose close wakes the round's ranks at its copies' end
// (a timed close), the next played run starts its copies' time (and a
// retry's pause) later. The cases must reach a replay, timed closes and
// each refusal: a fault plan, an escalation draw, a non-quiet opening
// (the first repetition refused, the second certified) and a retry's
// pause (the first repetition of a later attempt refused, the next
// certified). They must reach runs in which records replay from the
// memo beside experiments that are simulated, and whole rounds, which
// no rank plays, among them rounds of two or more records whose learned
// times differ; and the replayed jobs must simulate fewer experiment
// runs than the observed ones.
func TestRoundReplayMatchesSimulation(t *testing.T) {
	var replayed, faulted, drew, opening, paused, hits, mixed, simulated, observedRuns int
	var whole, uneven, timed int
	for seed := int64(1); seed <= 120; seed++ {
		cfg, opts, specs, rng := drawRoundCase(seed)
		odds := 12 // one experiment in three takes a variant
		switch rng.Intn(3) {
		case 0:
			// Flows of different experiments meet on the fabric's
			// uplinks, where the order of sends at one instant decides
			// which one waits.
			cfg.Cluster = cluster.FromTopology(topo.FatTree(4, topo.DefaultUplink()), cluster.NodeSpec{}, cluster.LinkSpec{})
			if rng.Intn(2) == 0 {
				specs = repeatedRounds(rng, cfg.Cluster.N())
			}
		case 1:
			// Records repeat, on a fault-free switch whose node types and
			// links repeat too.
			cfg.Cluster, cfg.Faults = hetCluster(4+rng.Intn(13), rng), nil
			specs, odds = repeatedRounds(rng, cfg.Cluster.N()), 40
		}
		variant := map[[2]int]int{}
		lead := -1
		for ri, rd := range specs {
			for x := range rd {
				if v := rng.Intn(odds); v <= bodyOrder && v != bodyPlain {
					if v == bodyLead && lead >= 0 {
						continue
					}
					if v == bodyLead {
						lead = rd[x].ranks[0]
					}
					variant[[2]int{ri, x}] = v
				}
			}
		}
		if odds > 12 {
			// A memo case repeats its first round of two or more records
			// without variants, which the memo may have learned: a whole
			// round whose records take different times.
		repeat:
			for ri, rd := range specs {
				if len(rd) < 2 {
					continue
				}
				for x, sp := range rd {
					if sp.kind > 1 || variant[[2]int{ri, x}] != bodyPlain {
						continue repeat
					}
				}
				specs = append(specs, rd)
				break
			}
			// It ends with three rounds of one round trip, the middle one
			// pending: its last message still holds the link when the
			// third round opens, whose record the first round taught the
			// memo.
			i := 2 * rng.Intn(cfg.Cluster.N()/2)
			rt := []expSpec{{kind: 0, ranks: [3]int{i, i + 1}, m: 1 << 10}}
			specs = append(specs, rt, rt, rt)
			variant[[2]int{len(specs) - 2, 0}] = bodyPending
		}
		got, lg := runReplayRounds(t, cfg, opts, specs, variant, lead)
		observed := cfg
		observed.Obs = obs.NewTrace()
		want, wlg := runReplayRounds(t, observed, opts, specs, variant, lead)
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Fatalf("seed %d: the replayed job differs from the simulated one\n got %s\nwant %s", seed, g, w)
		}

		o := opts.WithDefaults()
		attemptEnd := func(rep int) int { return (rep + o.MaxReps - 1) / o.MaxReps * o.MaxReps }
		for ri, sums := range want.sums {
			if len(sums) == 0 {
				continue
			}
			reps := sums[0].Reps
			for x := range sums {
				if wlg.runs[ri][x] != reps || wlg.plays[ri][x] != reps {
					t.Fatalf("seed %d round %d: an observed experiment simulated %d and played %d of its %d repetitions", seed, ri, wlg.runs[ri][x], wlg.plays[ri][x], reps)
				}
				if lg.plays[ri][x] != lg.plays[ri][0] {
					t.Fatalf("seed %d round %d: experiments played %d and %d runs", seed, ri, lg.plays[ri][0], lg.plays[ri][x])
				}
				simulated += lg.runs[ri][x]
				observedRuns += wlg.runs[ri][x]
			}
			ran := lg.plays[ri][0]
			if ran < reps {
				replayed++
				if cfg.Faults != nil {
					t.Fatalf("seed %d round %d: %d of %d repetitions played under a fault plan", seed, ri, ran, reps)
				}
			}
			if ran == 0 {
				// A whole round: resolved at its opening, and played by no
				// rank.
				if p := slices.Max(lg.played[ri]); p != 0 {
					t.Fatalf("seed %d round %d: a rank played %d runs of a round whose initiators played none", seed, ri, p)
				}
				whole++
				for _, s := range sums[1:] {
					if s.Mean != sums[0].Mean {
						uneven++
						break
					}
				}
			}
			// Map each played run to its repetition, and find the runs
			// whose close recorded copies.
			rl := lg.logs[ri][:ran]
			rep, at := 1, make([]int, ran)
			certified := make([]bool, ran)
			for i := range rl {
				if rl[i].hit > 0 {
					hits += rl[i].hit
					if rl[i].simulated > 0 {
						mixed++
					}
				}
				at[i] = rep
				if i+1 == ran {
					certified[i] = rep < reps
					break
				}
				gap := rl[i+1].start - rl[i].close
				if gap == 0 {
					rep++
					continue
				}
				end := attemptEnd(rep)
				copies, pause := end-rep, o.Backoff<<(end/o.MaxReps-1)
				if w := time.Duration(copies)*(rl[i].close-rl[i].start) + pause; gap != w {
					t.Fatalf("seed %d round %d: run %d (repetition %d) ends %v before the next starts, want %d copies and a %v pause, %v",
						seed, ri, i, rep, gap, copies, pause, w)
				}
				certified[i] = copies > 0
				rep = end + 1
			}
			for _, c := range certified {
				if c {
					timed++
				}
			}
			// Attribute each refused close: one that a next repetition of
			// its attempt followed, played.
			for i := 0; i+1 < ran; i++ {
				if at[i+1] != at[i]+1 {
					continue
				}
				switch {
				case cfg.Faults != nil:
					faulted++
				case rl[i].draws1 > rl[i].draws0:
					drew++
				case !certified[i+1]:
				case at[i] == 1:
					opening++
				case (at[i]-1)%o.MaxReps == 0:
					paused++
				}
			}
		}
	}
	if replayed == 0 || faulted == 0 || drew == 0 || opening == 0 || paused == 0 {
		t.Fatalf("replayed rounds %d; refused closes: %d under a fault plan, %d that drew, %d at a non-quiet opening, %d after a retry's pause; want each above 0",
			replayed, faulted, drew, opening, paused)
	}
	if mixed == 0 || simulated >= observedRuns {
		t.Fatalf("%d memo replays, %d runs that replayed beside a simulated experiment; the replayed jobs simulated %d experiment runs, the observed ones %d: want such runs, and fewer simulated",
			hits, mixed, simulated, observedRuns)
	}
	if whole == 0 || uneven == 0 || timed == 0 {
		t.Fatalf("%d whole rounds, %d of them of records whose learned times differ; %d timed closes: want each above 0", whole, uneven, timed)
	}
	t.Logf("replayed rounds %d; refused closes: %d under a fault plan, %d that drew, %d at a non-quiet opening, %d after a retry's pause",
		replayed, faulted, drew, opening, paused)
	t.Logf("%d memo replays, %d runs that replayed beside a simulated experiment; %d experiment runs simulated, %d when observed",
		hits, mixed, simulated, observedRuns)
	t.Logf("%d whole rounds, %d of them of records whose learned times differ; %d timed closes", whole, uneven, timed)
}

// TestRoundsSimulateOneRepetitionOnTable1 pins how many repetitions
// runRounds simulates on Table I, under the Ideal, LAM and MPICH
// profiles, for LMOX's two kinds of plan with the parallel schedule:
// round trips at 0 and 32 KiB over PairRounds(16), and the three
// rotations of one-to-two experiments at 0 and 32 KiB over every
// triplet. Every experiment records two repetitions; a certified first
// repetition records the second as a copy, and every round opens quiet
// and is certified at its first repetition. Table I's 16 nodes are 7
// processor types behind one uniform switch, so the plan's memo
// simulates one record of each class at its first repetition and
// replays the others: the 35 distinct pairs of the 120 at each size,
// and the 219 distinct rotations of the 1 680 at each size. The empty
// replies draw nothing under LAM and MPICH, so the profiles read alike.
// Before the memo the plans simulated 240 and 3 360 repetitions, and
// 3 425 while rounds opened at their release (see
// TestRoundOpeningsQuietOnCleanPlatforms).
//
// It also pins the rounds that are whole, every record of which
// replays at the round's quiet opening, and the play calls of every
// rank, whom a whole round wakes only at its end: 614 of the 912 rounds
// are whole, and the ranks make 3 908 play calls. Before whole rounds
// every seat of every round played once, 10 560 calls in all.
func TestRoundsSimulateOneRepetitionOnTable1(t *testing.T) {
	const n = 16
	tts := make([]TripletTimes, 0, 560)
	for _, tr := range AllTriplets(n) {
		tts = append(tts, TripletTimes{Members: [3]int{tr.I, tr.J, tr.K}})
	}
	plans := []struct {
		name  string
		build func() []round
	}{
		{"round trips", func() []round {
			return roundTripPlan(PairRounds(n), []int{0, 32 << 10}, func(Pair, int, float64) {})
		}},
		{"one-to-two", func() []round {
			var plan []round
			for _, idx := range tripletSchedule(n, AllTriplets(n), true) {
				for _, r := range rotations {
					for _, m := range []int{0, 32 << 10} {
						plan = append(plan, round{oneToTwoExps(tts, idx, r, m), func([]RoundSummary) {}})
					}
				}
			}
			return plan
		}},
	}
	type count struct{ simulated, whole, rounds, plays int }
	for _, tc := range []struct {
		prof *cluster.TCPProfile
		want [2]count // per plan
	}{
		{cluster.Ideal(), [2]count{{70, 4, 30, 416}, {438, 610, 882, 3492}}},
		{cluster.LAM(), [2]count{{70, 4, 30, 416}, {438, 610, 882, 3492}}},
		{cluster.MPICH(), [2]count{{70, 4, 30, 416}, {438, 610, 882, 3492}}},
	} {
		cfg := mpi.Config{Cluster: cluster.Table1(), Profile: tc.prof, Seed: 1}
		for pi, p := range plans {
			plan := p.build()
			roundOf := map[*Exp]int{}
			for k := range plan {
				for x := range plan[k].exps {
					roundOf[&plan[k].exps[x]] = k
				}
			}
			var got count
			played := make([]bool, len(plan))
			restore := wrapPlays(func(r *mpi.Rank, e *Exp, d time.Duration, run func()) {
				if d < 0 && r.Rank() == e.Initiator {
					got.simulated++
				}
				got.plays++
				played[roundOf[e]] = true
				run()
			})
			var rep Report
			_, err := mpi.Run(cfg, func(r *mpi.Rank) { runRounds(r, mpib.Options{}, plan, &rep) })
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Repetitions != 2*rep.Experiments || rep.Retries != 0 || rep.NonConverged != 0 {
				t.Errorf("%s, %s: %d experiments, %d repetitions, %d retries, %d non-converged; want 2 repetitions each",
					tc.prof.Name, p.name, rep.Experiments, rep.Repetitions, rep.Retries, rep.NonConverged)
			}
			got.rounds = len(plan)
			for _, ok := range played {
				if !ok {
					got.whole++
				}
			}
			if got != tc.want[pi] {
				t.Errorf("%s, %s: %d of %d repetitions simulated, %d of %d rounds whole, %d play calls; want %d simulated, %d of %d whole, %d play calls",
					tc.prof.Name, p.name, got.simulated, rep.Repetitions, got.whole, got.rounds, got.plays,
					tc.want[pi].simulated, tc.want[pi].whole, tc.want[pi].rounds, tc.want[pi].plays)
			}
		}
	}
}

// TestRoundOpeningsQuietOnCleanPlatforms pins how many experiments
// play a second run on clean platforms, where only a round's opening
// can refuse its first repetition: LMOX on Table I under LAM (platform
// seed 7, parallel schedule) and LMOGrouped on the 1 024-host
// FatTree(16), each at the repetition rule's minimum of two. A round's
// first repetition opens once its first seat runs, after the ranks of
// the round before that its release found still queued have walked on
// to a later barrier. When it opened at the release itself, 60 of
// LMOX's experiments (19 of its 912 rounds) and 1 286 of the
// fat-tree's (16 of its 40 rounds) were refused there.
func TestRoundOpeningsQuietOnCleanPlatforms(t *testing.T) {
	fat := cluster.FromTopology(topo.FatTree(16, topo.DefaultUplink()), cluster.NodeSpec{}, cluster.LinkSpec{})
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"LMOX on Table I", func() error {
			_, _, err := LMOX(mpi.Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 7}, Options{Parallel: true})
			return err
		}},
		{"LMOGrouped on FatTree(16)", func() error {
			_, _, _, err := LMOGrouped(mpi.Config{Cluster: fat, Profile: cluster.Ideal(), Seed: 1}, Options{})
			return err
		}},
	} {
		// A rank plays every run of its round, replayed or not, but
		// those of a whole round, which no rank plays.
		type play struct {
			e    *Exp
			rank int
		}
		played := map[play]int{}
		again := 0
		restore := wrapPlays(func(r *mpi.Rank, e *Exp, d time.Duration, run func()) {
			k := play{e, r.Rank()}
			if played[k]++; played[k] == 2 && r.Rank() == e.Initiator {
				again++
			}
			run()
		})
		err := c.run()
		restore()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again != 0 {
			t.Errorf("%s: %d experiments played a second run, want none", c.name, again)
		}
	}
}
