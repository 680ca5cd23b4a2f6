package estimate

import (
	"fmt"
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

// Test-side variants of an experiment's body for the replay oracle.
// Each makes the same calls at every run; what they leave behind, or
// find, decides whether a repetition can be certified.
const (
	bodyPlain   = iota
	bodyCell    // the initiator calls a SharedCell at every run
	bodyPending // the initiator ends each run with a message to its first peer, which the peer awaits for up to a millisecond at the start of each run
	bodyLead    // the initiator starts each run awaiting a message for up to a millisecond; one, sent before the plan, waits for the first run, so later runs take longer
	bodyOrder   // the initiator sleeps a microsecond for each rank of the round that started the run before it: the run sees the order of its release
)

// leadTag and pendingTag are the user tags of the variants' messages,
// above every experiment's tag.
const leadTag, pendingTag = 100, 101

// runLog is one run of a round's experiments, over the round's ranks:
// when the first began and the last ended, and the job's escalation
// draws then.
type runLog struct {
	start, close   time.Duration
	draws0, draws1 int
	started        int // the round's ranks that have started the run
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

// countedRounds builds the plan of specs with every body wrapped: the
// wrappers count each experiment's runs on its initiator, log each
// round's runs and count each rank's SharedCell calls in cells.
func countedRounds(specs [][]expSpec, variant map[[2]int]int, job *replayRoundsJob, cells []int) (plan []round, runs [][]int, logs [][]runLog) {
	runs = make([][]int, len(specs))
	logs = make([][]runLog, len(specs))
	for ri, rd := range specs {
		runs[ri] = make([]int, len(rd))
		var exps []Exp
		for x, sp := range rd {
			e := sp.build(x)
			if sp.kind == 1 {
				// Echo replies: two flows into the initiator at once, which
				// draw from the escalation randomness under LAM.
				e = oneToTwoExp(sp.ranks[0], sp.ranks[1], sp.ranks[2], sp.m, sp.m, x)
			}
			body, kind, ri, x := e.Body, variant[[2]int{ri, x}], ri, x
			perRank := map[int]int{}
			e.Body = func(r *mpi.Rank) {
				me, k := r.Rank(), perRank[r.Rank()]
				perRank[me]++
				if k == len(logs[ri]) {
					logs[ri] = append(logs[ri], runLog{})
				}
				l := &logs[ri][k]
				if l.started == 0 {
					l.start, l.draws0 = r.Now(), r.SyncState().Draws
				}
				l.started++
				init := me == sp.ranks[0]
				switch {
				case kind == bodyOrder && init:
					r.Sleep(time.Duration(l.started-1) * time.Microsecond)
				case kind == bodyLead && init:
					r.RecvTimeout(mpi.AnySource, leadTag, time.Millisecond)
				case kind == bodyPending && me == sp.ranks[1]:
					r.RecvTimeout(sp.ranks[0], pendingTag, time.Millisecond)
				}
				body(r)
				switch {
				case kind == bodyCell && init:
					r.SharedCell()
					cells[me]++
				case kind == bodyPending && init:
					r.Send(sp.ranks[1], pendingTag, nil)
				}
				if init {
					runs[ri][x]++
				}
				l = &logs[ri][k]
				l.close, l.draws1 = max(l.close, r.Now()), max(l.draws1, r.SyncState().Draws)
			}
			exps = append(exps, e)
		}
		plan = append(plan, round{exps, func(s []RoundSummary) { job.sums = append(job.sums, s) }})
	}
	return plan, runs, logs
}

// runReplayRounds runs specs as one plan, then a round of round trips
// and a Barrier, and reports what the job left, how often each
// experiment's body ran on its initiator and each round's runs. With
// lead, the rank after the lead experiment's initiator sends it a
// message before the plan.
func runReplayRounds(t *testing.T, cfg mpi.Config, opts mpib.Options, specs [][]expSpec, variant map[[2]int]int, lead int) (replayRoundsJob, [][]int, [][]runLog) {
	t.Helper()
	n := cfg.Cluster.N()
	job := replayRoundsJob{colls: make([]int, n)}
	cells := make([]int, n)
	plan, runs, logs := countedRounds(specs, variant, &job, cells)
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
	return job, runs, logs
}

// TestRoundReplayMatchesSimulation runs the plans of the round oracle's
// seeded cases twice: without an observer, so that runRounds records a
// certified repetition's copies instead of simulating them, and with
// one, which simulates every repetition. A third of the cases run on a
// 16-host fat-tree instead of one switch. The one-to-two experiments
// echo their messages, so that under LAM their replies draw from the
// escalation randomness, and some experiments take a test-side body
// variant that refuses or delays certification. Each round's summaries,
// the summaries of a round run after the plan, the job's duration and
// traffic and every rank's collective count must be identical.
//
// Where the replayed job simulated fewer runs than a round recorded,
// the runs' times must account for the copies exactly: after a
// certified repetition the next simulated run starts its copies' time
// (and a retry's pause) later. The cases must reach a replay and each
// refusal: a fault plan, an escalation draw, a non-quiet opening (the
// first repetition refused, the second certified) and a retry's pause
// (the first repetition of a later attempt refused, the next
// certified).
func TestRoundReplayMatchesSimulation(t *testing.T) {
	var replayed, faulted, drew, opening, paused int
	for seed := int64(1); seed <= 120; seed++ {
		cfg, opts, specs, rng := drawRoundCase(seed)
		if rng.Intn(3) == 0 {
			// Flows of different experiments meet on the fabric's
			// uplinks, where the order of sends at one instant decides
			// which one waits.
			cfg.Cluster = cluster.FromTopology(topo.FatTree(4, topo.DefaultUplink()), cluster.NodeSpec{}, cluster.LinkSpec{})
		}
		variant := map[[2]int]int{}
		lead := -1
		for ri, rd := range specs {
			for x := range rd {
				if v := rng.Intn(12); v <= bodyOrder && v != bodyPlain {
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
		got, runs, logs := runReplayRounds(t, cfg, opts, specs, variant, lead)
		observed := cfg
		observed.Obs = obs.NewTrace()
		want, wantRuns, _ := runReplayRounds(t, observed, opts, specs, variant, lead)
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
				if wantRuns[ri][x] != reps {
					t.Fatalf("seed %d round %d: an observed experiment ran %d of its %d repetitions", seed, ri, wantRuns[ri][x], reps)
				}
				if runs[ri][x] != runs[ri][0] {
					t.Fatalf("seed %d round %d: experiments ran %d and %d times", seed, ri, runs[ri][0], runs[ri][x])
				}
			}
			ran := runs[ri][0]
			if ran < reps {
				replayed++
				if cfg.Faults != nil {
					t.Fatalf("seed %d round %d: %d of %d repetitions simulated under a fault plan", seed, ri, ran, reps)
				}
			}
			// Map each simulated run to its repetition, and find the runs
			// whose close recorded copies.
			rl := logs[ri][:ran]
			rep, at := 1, make([]int, ran)
			certified := make([]bool, ran)
			for i := range rl {
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
			// Attribute each refused close: one that a next repetition of
			// its attempt followed, simulated.
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
	t.Logf("replayed rounds %d; refused closes: %d under a fault plan, %d that drew, %d at a non-quiet opening, %d after a retry's pause",
		replayed, faulted, drew, opening, paused)
}

// TestRoundsSimulateOneRepetitionOnTable1 pins how many repetitions
// runRounds simulates on Table I, under the Ideal, LAM and MPICH
// profiles, for LMOX's two kinds of plan with the parallel schedule:
// round trips at 0 and 32 KiB over PairRounds(16), and the three
// rotations of one-to-two experiments at 0 and 32 KiB over every
// triplet. Every experiment records two repetitions; a certified first
// repetition records the second as a copy. Every round-trip round is
// certified at its first repetition, and 3 295 of the 3 360 one-to-two
// experiments are; the others' rounds open while ranks of the round
// before them still have a resume queued. The empty replies draw
// nothing under LAM and MPICH, so the profiles read alike.
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
	for _, tc := range []struct {
		prof      *cluster.TCPProfile
		simulated [2]int // per plan
	}{
		{cluster.Ideal(), [2]int{240, 3425}},
		{cluster.LAM(), [2]int{240, 3425}},
		{cluster.MPICH(), [2]int{240, 3425}},
	} {
		cfg := mpi.Config{Cluster: cluster.Table1(), Profile: tc.prof, Seed: 1}
		for pi, p := range plans {
			plan := p.build()
			simulated := 0
			for k := range plan {
				for x := range plan[k].exps {
					e := &plan[k].exps[x]
					body, init := e.Body, e.Initiator
					e.Body = func(r *mpi.Rank) {
						if r.Rank() == init {
							simulated++
						}
						body(r)
					}
				}
			}
			var rep Report
			if _, err := mpi.Run(cfg, func(r *mpi.Rank) { runRounds(r, mpib.Options{}, plan, &rep) }); err != nil {
				t.Fatal(err)
			}
			if rep.Repetitions != 2*rep.Experiments || rep.Retries != 0 || rep.NonConverged != 0 {
				t.Errorf("%s, %s: %d experiments, %d repetitions, %d retries, %d non-converged; want 2 repetitions each",
					tc.prof.Name, p.name, rep.Experiments, rep.Repetitions, rep.Retries, rep.NonConverged)
			}
			if simulated != tc.simulated[pi] {
				t.Errorf("%s, %s: %d of %d repetitions simulated, want %d", tc.prof.Name, p.name, simulated, rep.Repetitions, tc.simulated[pi])
			}
		}
	}
}
