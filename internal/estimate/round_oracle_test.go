package estimate

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/stats"
)

// measureRoundPerRank is measureRound with per-rank bookkeeping: every
// rank keeps its own copy of every experiment's samples, summarizes
// them and derives the stopping decision itself. It is the reference
// the shared round state must reproduce exactly.
func measureRoundPerRank(r *mpi.Rank, opts mpib.Options, exps []Exp) []RoundSummary {
	opts = opts.WithDefaults()
	n := r.Size()

	cell := r.SharedCell()
	if cell.V == nil {
		cell.V = make([]float64, n)
	}
	locals := cell.V.([]float64)

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
			r.HardSync()
			t0 := r.Now()
			for _, e := range exps {
				e.Body(r)
			}
			locals[r.Rank()] = (r.Now() - t0).Seconds()
			for _, e := range exps {
				if e.Initiator == r.Rank() && e.Custom != nil {
					locals[r.Rank()] = *e.Custom
				}
			}
			r.HardSync()

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

// randomRounds draws 1–3 rounds, each of 1–6 experiments on disjoint
// ranks of an n-rank job (fewer when the ranks run out).
func randomRounds(rng *rand.Rand, n int) [][]expSpec {
	sizes := []int{0, 1 << 10, 32 << 10, 100 << 10}
	rounds := make([][]expSpec, 1+rng.Intn(3))
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
	return rounds
}

// oracleRun is what one job of the oracle comparison observed.
type oracleRun struct {
	summaries       [][][]RoundSummary // per rank, per round
	duration        time.Duration
	events, resumes int64
}

// runOracleRounds measures the rounds in one job and returns every
// rank's summaries per round, the job's virtual duration and the
// kernel's event and resume counts. The per-rank reference builds its
// experiments on every rank, as the estimators did; the shared version
// builds them once.
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
	shared := build()
	got := make([][][]RoundSummary, cfg.Cluster.N())
	res, err := mpi.Run(cfg, func(r *mpi.Rank) {
		exps := shared
		if perRank {
			exps = build()
		}
		for _, e := range exps {
			if perRank {
				got[r.Rank()] = append(got[r.Rank()], measureRoundPerRank(r, opts, e))
			} else {
				got[r.Rank()] = append(got[r.Rank()], measureRound(r, opts, e))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return oracleRun{got, res.Duration, tr.Counter("vtime.events").Value(), tr.Counter("vtime.resumes").Value()}
}

// TestMeasureRoundMatchesPerRankOracle drives seeded random rounds —
// 1–6 disjoint round-trip, one-to-two and custom-sample experiments on
// 2–16 ranks (and, every tenth seed, a round with none), under varied
// repetition bounds, outlier rejection and retries, with TCP
// irregularities and packet loss that keep some confidence intervals
// open — through the shared round state and the per-rank reference,
// and requires identical summaries on every rank and an identical
// virtual duration, event count and resume count.
func TestMeasureRoundMatchesPerRankOracle(t *testing.T) {
	nonConverged, retried := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
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
		specs := randomRounds(rng, n)
		if seed%10 == 0 {
			specs = append(specs, nil) // a round with no experiments
		}

		got := runOracleRounds(t, cfg, opts, specs, false)
		want := runOracleRounds(t, cfg, opts, specs, true)
		if got.duration != want.duration || got.events != want.events || got.resumes != want.resumes {
			t.Fatalf("seed %d: duration %v, %d events, %d resumes; per-rank reference %v, %d, %d",
				seed, got.duration, got.events, got.resumes, want.duration, want.events, want.resumes)
		}
		for rank := range want.summaries {
			if g, w := fmt.Sprintf("%+v", got.summaries[rank]), fmt.Sprintf("%+v", want.summaries[rank]); g != w {
				t.Fatalf("seed %d rank %d: summaries differ\n got %s\nwant %s", seed, rank, g, w)
			}
		}
		for _, round := range want.summaries[0] {
			for _, s := range round {
				if !s.Converged {
					nonConverged++
				}
				if s.Retries > 0 {
					retried++
				}
			}
		}
	}
	// The generator must reach the decision paths beyond plain
	// convergence, or the comparison proves little.
	if nonConverged == 0 || retried == 0 {
		t.Fatalf("generated rounds never failed to converge (%d) or retried (%d)", nonConverged, retried)
	}
	t.Logf("%d non-converged and %d retried experiment summaries", nonConverged, retried)
}
