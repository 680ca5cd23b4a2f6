package estimate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// measureRoundPerRank measures one round with per-rank bookkeeping: every
// rank keeps its own copy of every experiment's samples, summarizes
// them and derives the stopping decision itself. It is the reference
// the shared round state must reproduce exactly. Its world syncs
// release the ranks in runRounds' order: the round's seat order, then
// the ranks the round does not use.
func measureRoundPerRank(r *mpi.Rank, opts mpib.Options, exps []Exp) []RoundSummary {
	opts = opts.WithDefaults()
	n := r.Size()

	cell := r.SharedCell()
	if cell.V == nil {
		cell.V = newOrderedSync(n, exps)
	}
	sync := cell.V.(*orderedSync)
	locals := sync.locals

	converged := func(s stats.Summary) bool {
		return s.N >= opts.MinReps && s.RelErr() <= opts.RelErr
	}
	summarize := func(xs []float64) (stats.Summary, int) {
		return stats.RobustSummarize(xs, opts.Confidence, opts.OutlierMAD)
	}

	samples := make([][]float64, len(exps))
	budget := opts.MaxReps
	retries := 0
	backoff := opts.Backoff
	for {
		for {
			sync.wait(r)
			t0 := r.Now()
			for _, e := range exps {
				e.run(r)
			}
			locals[r.Rank()] = (r.Now() - t0).Seconds()
			for _, e := range exps {
				if e.Initiator == r.Rank() && e.Custom != nil {
					locals[r.Rank()] = *e.Custom
				}
			}
			sync.wait(r)

			done := true
			for i, e := range exps {
				v := locals[e.Initiator]
				samples[i] = append(samples[i], v)
				if len(samples[i]) >= budget {
					continue
				}
				if len(samples[i]) < opts.MinReps {
					done = false
					continue
				}
				if s, _ := summarize(samples[i]); !converged(s) {
					done = false
				}
			}
			if done {
				break
			}
		}
		allConverged := true
		for i := range exps {
			if s, _ := summarize(samples[i]); !converged(s) {
				allConverged = false
				break
			}
		}
		if allConverged || retries >= opts.Retries {
			break
		}
		retries++
		r.Sleep(backoff)
		backoff *= 2
		budget += opts.MaxReps
	}
	out := make([]RoundSummary, len(exps))
	for i := range exps {
		s, rejected := summarize(samples[i])
		out[i] = RoundSummary{
			Summary:   s,
			Converged: converged(s),
			Reps:      len(samples[i]),
			Rejected:  rejected,
			Retries:   retries,
		}
	}
	return out
}

// orderedSync is the per-rank reference's world barrier. It releases
// every rank in one fixed order, as runRounds' round barrier does: the
// round's ranks in seat order (experiment by experiment, the initiator
// first), then the ranks the round does not use, in rank order. The
// last arrival resumes at its own place.
type orderedSync struct {
	arrived int
	at      []int         // each rank's place in the order
	procs   []*vtime.Proc // the ranks' processes in release order
	locals  []float64     // each rank's local sample of the current repetition
}

func newOrderedSync(n int, exps []Exp) *orderedSync {
	s := &orderedSync{at: make([]int, n), procs: make([]*vtime.Proc, n), locals: make([]float64, n)}
	var order []int
	for _, e := range exps {
		rs, m := e.ranks()
		order = append(order, rs[:m]...)
	}
	for rank := 0; rank < n; rank++ {
		if !slices.Contains(order, rank) {
			order = append(order, rank)
		}
	}
	for place, rank := range order {
		s.at[rank] = place
	}
	return s
}

// wait parks rank r until every rank has arrived, then releases them
// all in the barrier's order.
func (s *orderedSync) wait(r *mpi.Rank) {
	p := r.Proc()
	s.procs[s.at[r.Rank()]] = p
	if s.arrived++; s.arrived == len(s.procs) {
		s.arrived = 0
		p.WakeOrdered(s.procs, p.Now())
	}
	p.Park()
}

// expSpec describes one experiment of a generated round.
type expSpec struct {
	kind  int // 0 round-trip, 1 one-to-two, 2 send overhead, 3 receive overhead
	ranks [3]int
	m     int
}

func (s expSpec) build(tag int) Exp {
	i, j, k := s.ranks[0], s.ranks[1], s.ranks[2]
	switch s.kind {
	case 0:
		return roundtripExp(i, j, s.m, s.m, tag)
	case 1:
		return oneToTwoExp(i, j, k, s.m, 0, tag)
	case 2:
		return sendOverheadExp(i, j, s.m, tag)
	default:
		return recvOverheadExp(i, j, s.m, 2*time.Millisecond, tag)
	}
}

// randomRounds draws 1–5 rounds, each of 1–6 experiments on disjoint
// ranks of an n-rank job (fewer when the ranks run out), and on one
// seed in five an empty round at a random place.
func randomRounds(rng *rand.Rand, n int) [][]expSpec {
	sizes := []int{0, 1 << 10, 32 << 10, 100 << 10}
	rounds := make([][]expSpec, 1+rng.Intn(5))
	for ri := range rounds {
		free := rng.Perm(n)
		want := 1 + rng.Intn(6)
		for len(rounds[ri]) < want {
			kind := rng.Intn(4)
			need := 2
			if kind == 1 {
				need = 3
			}
			if len(free) < need {
				if len(rounds[ri]) > 0 || len(free) < 2 {
					break
				}
				kind, need = 0, 2
			}
			s := expSpec{kind: kind, m: sizes[rng.Intn(len(sizes))]}
			copy(s.ranks[:], free[:need])
			free = free[need:]
			rounds[ri] = append(rounds[ri], s)
		}
	}
	if rng.Intn(5) == 0 {
		rounds = slices.Insert(rounds, rng.Intn(len(rounds)+1), nil)
	}
	return rounds
}

// drawRoundCase draws seed's case of the round oracles: a job of 2–16
// homogeneous ranks, under LAM or no TCP effects, with or without a
// lossy fabric, the repetition options and the plan's rounds. It
// returns the generator for further draws.
func drawRoundCase(seed int64) (mpi.Config, mpib.Options, [][]expSpec, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(15)
	cfg := homConfig(n)
	cfg.Seed = seed
	if rng.Intn(2) == 0 {
		cfg.Profile = cluster.LAM()
	}
	if rng.Intn(2) == 0 {
		cfg.Faults = &faults.Plan{Loss: []faults.LinkLoss{{
			Src: faults.Any, Dst: faults.Any,
			Prob: 0.05 + 0.25*rng.Float64(), RTO: time.Millisecond,
		}}}
	}
	opts := mpib.Options{MinReps: 1 + rng.Intn(5), Retries: rng.Intn(3)}
	opts.MaxReps = opts.MinReps + rng.Intn(8)
	if rng.Intn(2) == 0 {
		opts.OutlierMAD = 3
	}
	if rng.Intn(2) == 0 {
		opts.RelErr = 0.002
	}
	return cfg, opts, randomRounds(rng, n), rng
}

// roundRanks returns, for each round, which of the n ranks it uses.
func roundRanks(specs [][]expSpec, n int) [][]bool {
	out := make([][]bool, len(specs))
	for ri, round := range specs {
		out[ri] = make([]bool, n)
		for _, s := range round {
			need := 2
			if s.kind == 1 {
				need = 3
			}
			for _, rank := range s.ranks[:need] {
				out[ri][rank] = true
			}
		}
	}
	return out
}

// oracleRun is what one job of the oracle comparison observed.
type oracleRun struct {
	summaries  [][]RoundSummary // per round
	duration   time.Duration
	transcript []obs.Span // every message span, in emission order
}

// runOracleRounds measures the rounds in one job and returns their
// summaries, the job's virtual duration and its message transcript.
// The per-rank reference builds its experiments on every rank, as the
// estimators once did, runs every round on every rank and requires
// every rank to return the same summaries; the harness under test runs
// the rounds as one plan through runRounds.
func runOracleRounds(t *testing.T, cfg mpi.Config, opts mpib.Options, specs [][]expSpec, perRank bool) oracleRun {
	t.Helper()
	tr := obs.NewTrace()
	cfg.Obs = tr
	build := func() [][]Exp {
		out := make([][]Exp, len(specs))
		for ri, round := range specs {
			for x, s := range round {
				out[ri] = append(out[ri], s.build(x))
			}
		}
		return out
	}
	var run oracleRun
	var body func(r *mpi.Rank)
	perRankSums := make([][][]RoundSummary, cfg.Cluster.N())
	if perRank {
		body = func(r *mpi.Rank) {
			for _, exps := range build() {
				perRankSums[r.Rank()] = append(perRankSums[r.Rank()], measureRoundPerRank(r, opts, exps))
			}
		}
	} else {
		var plan []round
		for _, exps := range build() {
			plan = append(plan, round{exps, func(s []RoundSummary) { run.summaries = append(run.summaries, s) }})
		}
		var rep Report
		body = func(r *mpi.Rank) { runRounds(r, opts, plan, &rep) }
	}
	res, err := mpi.Run(cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	if perRank {
		for rank, sums := range perRankSums {
			if g, w := fmt.Sprintf("%+v", sums), fmt.Sprintf("%+v", perRankSums[0]); g != w {
				t.Fatalf("per-rank reference: rank %d's summaries differ from rank 0's\n got %s\nwant %s", rank, g, w)
			}
		}
		run.summaries = perRankSums[0]
	}
	run.duration = res.Duration
	for _, sp := range tr.Spans() {
		if sp.Cat == obs.CatMessage {
			sp.ID, sp.Parent = 0, 0 // span ids count every span, not only messages
			run.transcript = append(run.transcript, sp)
		}
	}
	return run
}

// TestMeasureRoundMatchesPerRankOracle drives seeded random plans —
// rounds of 1–6 disjoint round-trip, one-to-two and custom-sample
// experiments on 2–16 ranks, sometimes with an empty round, under
// varied repetition bounds, outlier rejection and retries, with TCP
// irregularities and packet loss that keep some confidence intervals
// open — through runRounds and through the per-rank reference, which
// runs every round on every rank between world syncs that release the
// ranks in runRounds' order. It requires identical per-round
// summaries, an identical virtual duration and an identical message
// transcript: every message span's name, track, endpoints, bytes,
// start and end. Event and resume counts are not compared: the harness
// spares the ranks a round does not use exactly those. The transcript
// is observed, so runRounds simulates every repetition here.
func TestMeasureRoundMatchesPerRankOracle(t *testing.T) {
	nonConverged, retried := 0, 0
	gated, returned, empty := 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		cfg, opts, specs, _ := drawRoundCase(seed)
		n := cfg.Cluster.N()

		got := runOracleRounds(t, cfg, opts, specs, false)
		want := runOracleRounds(t, cfg, opts, specs, true)
		if got.duration != want.duration {
			t.Fatalf("seed %d: duration %v, per-rank reference %v", seed, got.duration, want.duration)
		}
		if g, w := fmt.Sprintf("%+v", got.summaries), fmt.Sprintf("%+v", want.summaries); g != w {
			t.Fatalf("seed %d: summaries differ\n got %s\nwant %s", seed, g, w)
		}
		if len(got.transcript) != len(want.transcript) {
			t.Fatalf("seed %d: %d message spans, per-rank reference %d", seed, len(got.transcript), len(want.transcript))
		}
		for i := range want.transcript {
			if got.transcript[i] != want.transcript[i] {
				t.Fatalf("seed %d: message span %d is %+v, per-rank reference %+v", seed, i, got.transcript[i], want.transcript[i])
			}
		}

		for _, round := range want.summaries {
			for _, s := range round {
				if !s.Converged {
					nonConverged++
				}
				if s.Retries > 0 {
					retried++
				}
			}
		}
		sets := roundRanks(specs, n)
		used := func(ri int) bool { return slices.Contains(sets[ri], true) }
		for ri, set := range sets {
			if !used(ri) {
				empty++
				continue
			}
			if ri+1 < len(sets) && used(ri+1) && !shareRank(set, sets[ri+1]) {
				gated++
			}
			if ri+3 < len(sets) && used(ri+1) && used(ri+2) {
				for rank, in := range set {
					if in && !sets[ri+1][rank] && !sets[ri+2][rank] && sets[ri+3][rank] {
						returned++
					}
				}
			}
		}
	}
	// The generator must reach the decision paths beyond plain
	// convergence and the plan shapes the round barrier handles, or the
	// comparison proves little.
	if nonConverged == 0 || retried == 0 {
		t.Fatalf("generated rounds never failed to converge (%d) or retried (%d)", nonConverged, retried)
	}
	if gated == 0 || returned == 0 || empty == 0 {
		t.Fatalf("generated plans lack a shape: %d disjoint consecutive rounds, %d ranks back after sitting out two rounds, %d empty rounds",
			gated, returned, empty)
	}
	t.Logf("%d non-converged and %d retried experiment summaries; %d disjoint consecutive rounds, %d ranks back after sitting out two rounds, %d empty rounds",
		nonConverged, retried, gated, returned, empty)
}

// shareRank reports whether two rounds use a rank in common.
func shareRank(a, b []bool) bool {
	for rank := range a {
		if a[rank] && b[rank] {
			return true
		}
	}
	return false
}

// TestRoundResumesIndependentOfWorldSize counts what a round costs the
// event kernel: the vtime.resumes of a job that runs one round of four
// experiments × three repetitions, less those of the same job with an
// empty plan. The increment must be exactly the same in a 16-rank and
// a 1 024-rank world: a rank outside the round neither waits at its
// barrier nor runs its bodies.
func TestRoundResumesIndependentOfWorldSize(t *testing.T) {
	const reps = 3
	opts := mpib.Options{MinReps: reps, MaxReps: reps}
	exps := []Exp{
		roundtripExp(0, 1, 0, 0, 0),
		oneToTwoExp(2, 3, 4, 1<<10, 0, 1),
		sendOverheadExp(5, 6, 1<<10, 2),
		roundtripExp(7, 8, 32<<10, 32<<10, 3),
	}
	ran := 0
	plan := []round{{exps, func(s []RoundSummary) {
		for _, x := range s {
			ran += x.N
		}
	}}}
	resumes := func(n int, plan []round) int64 {
		cfg := homConfig(n)
		cfg.Obs = obs.NewTrace()
		var rep Report
		if _, err := mpi.Run(cfg, func(r *mpi.Rank) { runRounds(r, opts, plan, &rep) }); err != nil {
			t.Fatal(err)
		}
		return cfg.Obs.Counter("vtime.resumes").Value()
	}
	var incr [2]int64
	for i, n := range []int{16, 1024} {
		incr[i] = resumes(n, plan) - resumes(n, nil)
	}
	if ran != 2*len(exps)*reps {
		t.Fatalf("the round ran %d repetitions over two jobs, want %d", ran, 2*len(exps)*reps)
	}
	if incr[0] != incr[1] {
		t.Fatalf("the round costs %d resumes in a 16-rank world and %d in a 1 024-rank one", incr[0], incr[1])
	}
	t.Logf("the round costs %d resumes in either world", incr[0])
}
