package mpib

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/stats"
)

// measurePerRank is Measure with per-rank bookkeeping: every rank keeps
// its own samples and derives the stopping decision itself. It is the
// reference the shared measurement state must reproduce exactly.
func measurePerRank(r *mpi.Rank, designated int, timing Timing, opts Options, op func()) Measurement {
	opts = opts.WithDefaults()
	cell := r.SharedCell()
	if cell.V == nil {
		cell.V = make([]float64, r.Size())
	}
	locals := cell.V.([]float64)

	var samples []float64
	r.HardSync()
	start := r.Now()
	summarize := func() (stats.Summary, int) {
		return stats.RobustSummarize(samples, opts.Confidence, opts.OutlierMAD)
	}
	converged := false
	retries := 0
	backoff := opts.Backoff
	for attempt := 0; ; attempt++ {
		budget := len(samples) + opts.MaxReps
		for len(samples) < budget {
			r.HardSync()
			t0 := r.Now()
			op()
			locals[r.Rank()] = (r.Now() - t0).Seconds()
			r.HardSync()
			sample := locals[designated]
			if timing != RootTiming {
				sample = stats.Max(locals)
			}
			samples = append(samples, sample)
			if len(samples) >= opts.MinReps {
				if s, _ := summarize(); s.N >= opts.MinReps && s.RelErr() <= opts.RelErr {
					converged = true
					break
				}
			}
		}
		if converged || attempt >= opts.Retries {
			break
		}
		retries++
		r.Sleep(backoff)
		backoff *= 2
	}
	summary, rejected := summarize()
	return Measurement{
		Summary:   summary,
		Samples:   samples,
		Elapsed:   r.Now() - start,
		Converged: converged,
		Reps:      len(samples),
		Retries:   retries,
		Rejected:  rejected,
	}
}

// TestMeasureMatchesPerRankOracle drives seeded random measurements of
// a linear gather — 2–12 ranks, both timing methods, varied
// repetition bounds, outlier rejection and retries, with TCP
// irregularities and packet loss that keep some confidence intervals
// open — through Measure and the per-rank reference, and requires an
// identical Measurement on every rank and an identical virtual
// duration, event count and resume count.
func TestMeasureMatchesPerRankOracle(t *testing.T) {
	run := func(cfg mpi.Config, designated int, timing Timing, opts Options, m int,
		measure func(*mpi.Rank, int, Timing, Options, func()) Measurement) ([][]Measurement, string) {
		tr := obs.NewTrace()
		cfg.Obs = tr
		got := make([][]Measurement, cfg.Cluster.N())
		res, err := mpi.Run(cfg, func(r *mpi.Rank) {
			block := make([]byte, m)
			for i := 0; i < 2; i++ {
				meas := measure(r, designated, timing, opts, func() { r.Gather(mpi.Linear, designated, block) })
				got[r.Rank()] = append(got[r.Rank()], meas)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, fmt.Sprintf("duration %v, %d events, %d resumes",
			res.Duration, tr.Counter("vtime.events").Value(), tr.Counter("vtime.resumes").Value())
	}
	nonConverged, retried := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11)
		cfg := testConfig(n)
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
		opts := Options{MinReps: 1 + rng.Intn(5), Retries: rng.Intn(3)}
		opts.MaxReps = opts.MinReps + rng.Intn(8)
		if rng.Intn(2) == 0 {
			opts.OutlierMAD = 3
		}
		if rng.Intn(2) == 0 {
			opts.RelErr = 0.002
		}
		timing := Timing(rng.Intn(2))
		designated := rng.Intn(n)
		m := []int{0, 1 << 10, 32 << 10, 100 << 10}[rng.Intn(4)]

		got, gotRun := run(cfg, designated, timing, opts, m, Measure)
		want, wantRun := run(cfg, designated, timing, opts, m, measurePerRank)
		if gotRun != wantRun {
			t.Fatalf("seed %d: %s; per-rank reference %s", seed, gotRun, wantRun)
		}
		for rank := range want {
			if g, w := fmt.Sprintf("%+v", got[rank]), fmt.Sprintf("%+v", want[rank]); g != w {
				t.Fatalf("seed %d rank %d: measurements differ\n got %s\nwant %s", seed, rank, g, w)
			}
		}
		for _, meas := range want[0] {
			if !meas.Converged {
				nonConverged++
			}
			if meas.Retries > 0 {
				retried++
			}
		}
	}
	// The generator must reach the decision paths beyond plain
	// convergence, or the comparison proves little.
	if nonConverged == 0 || retried == 0 {
		t.Fatalf("generated measurements never failed to converge (%d) or retried (%d)", nonConverged, retried)
	}
}
