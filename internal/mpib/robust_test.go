package mpib

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/stats"
)

func TestZeroVarianceSeriesConvergesAndSummarizes(t *testing.T) {
	// A deterministic op yields identical samples: the CI is zero-width,
	// convergence happens at MinReps, and MAD-based rejection must keep
	// every sample (MAD == 0 must not reject the whole series).
	const n = 4
	var got Measurement
	_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
		m := Measure(r, 0, MaxTiming, Options{OutlierMAD: 3}, func() {
			r.Bcast(0, make([]byte, 1000))
		})
		if r.Rank() == 0 {
			got = m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Converged {
		t.Fatal("zero-variance series did not converge")
	}
	if got.Rejected != 0 {
		t.Fatalf("rejected %d samples of an identical series", got.Rejected)
	}
	if got.Reps != 2 || got.N != 2 {
		t.Fatalf("Reps = %d, N = %d, want 2/2", got.Reps, got.N)
	}
	if got.StdDev != 0 || got.CIHalf != 0 {
		t.Fatalf("zero-variance summary has spread: %+v", got.Summary)
	}
}

func TestMinRepsAboveMaxRepsClamps(t *testing.T) {
	const n = 2
	var got Measurement
	_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
		// MinReps 8 > MaxReps 3: the cap is raised to MinReps, so the
		// stopping rule can actually apply.
		got = Measure(r, 0, MaxTiming, Options{MinReps: 8, MaxReps: 3}, func() {
			r.Bcast(0, make([]byte, 500))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reps != 8 {
		t.Fatalf("Reps = %d, want 8 (MaxReps clamped up to MinReps)", got.Reps)
	}
	if !got.Converged {
		t.Fatal("deterministic op at 8 reps should converge")
	}
}

// noisyOp sleeps a deterministic, high-variance schedule so the CI
// cannot close within a few reps: sample k is (1 + 2*(k mod 2)) ms.
func noisyOp(r *mpi.Rank, k *int) func() {
	return func() {
		d := time.Duration(1+2*(*k%2)) * time.Millisecond
		*k++
		r.Sleep(d)
	}
}

func TestNonConvergedPathReportsHonestly(t *testing.T) {
	const n = 2
	var got Measurement
	_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
		k := 0
		got = Measure(r, 0, MaxTiming, Options{MaxReps: 6}, noisyOp(r, &k))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Converged {
		t.Fatalf("alternating 1ms/3ms samples converged at 2.5%% rel err: %+v", got.Summary)
	}
	if got.Reps != 6 {
		t.Fatalf("Reps = %d, want the full MaxReps 6", got.Reps)
	}
	if got.Retries != 0 {
		t.Fatalf("Retries = %d with retries disabled", got.Retries)
	}
	if got.RelErr() <= 0.025 {
		t.Fatalf("non-converged measurement reports rel err %v <= target", got.RelErr())
	}
}

// measureSchedule measures, on two ranks, an op whose k-th repetition
// sleeps schedule[k] on rank 0 alone, and returns rank 0's Measurement:
// RootTiming at rank 0 samples the schedule exactly.
func measureSchedule(t *testing.T, schedule []time.Duration, opts Options) Measurement {
	t.Helper()
	var got Measurement
	_, err := mpi.Run(testConfig(2), func(r *mpi.Rank) {
		k := 0
		m := Measure(r, 0, RootTiming, opts, func() {
			if r.Rank() == 0 {
				r.Sleep(schedule[k])
				k++
			}
		})
		if r.Rank() == 0 {
			got = m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMinimumIsAFloorNotACount checks that the default minimum of two
// repetitions only lets a series stop early when its samples agree. A
// seeded op whose duration jitters by 4% (CV) repeats past two until
// its CI is within RelErr, and stops at the first repetition where it
// is. With outlier rejection on, a spike at the second repetition
// keeps the loop going too: two samples are too few to reject one, so
// the spike widens the CI, and the third repetition rejects it.
func TestMinimumIsAFloorNotACount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jitter := make([]time.Duration, 100)
	for i := range jitter {
		jitter[i] = time.Duration(float64(time.Millisecond) * (1 + 0.04*rng.NormFloat64()))
	}
	got := measureSchedule(t, jitter, Options{})
	if got.Reps <= 2 {
		t.Fatalf("jittered series stopped at %d repetitions: %v", got.Reps, got.Samples)
	}
	if !got.Converged || got.RelErr() > 0.025 {
		t.Fatalf("jittered series finished at rel err %v (converged %v), want within 0.025", got.RelErr(), got.Converged)
	}
	for k := 2; k < got.Reps; k++ {
		if s := stats.Summarize(got.Samples[:k], 0.95); s.RelErr() <= 0.025 {
			t.Fatalf("CI was within 0.025 at %d repetitions (%v), but the loop ran %d", k, s.RelErr(), got.Reps)
		}
	}
	for k, x := range got.Samples {
		if x != jitter[k].Seconds() {
			t.Fatalf("sample %d = %v, want the schedule's %v", k, x, jitter[k].Seconds())
		}
	}

	spike := []time.Duration{time.Millisecond, 10 * time.Millisecond, time.Millisecond, time.Millisecond}
	got = measureSchedule(t, spike, Options{OutlierMAD: 3})
	if got.Reps != 3 || got.Rejected != 1 || !got.Converged || got.Mean != 0.001 {
		t.Fatalf("spike at repetition 2: %d repetitions, %d rejected, converged %v, mean %v; want 3, 1, true, 0.001",
			got.Reps, got.Rejected, got.Converged, got.Mean)
	}
}

func TestRetryWithBackoffAddsAttempts(t *testing.T) {
	const n = 2
	var withRetry, without Measurement
	run := func(opts Options) Measurement {
		var got Measurement
		_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
			k := 0
			got = Measure(r, 0, MaxTiming, opts, noisyOp(r, &k))
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	without = run(Options{MaxReps: 6})
	withRetry = run(Options{MaxReps: 6, Retries: 2})
	if withRetry.Retries != 2 {
		t.Fatalf("Retries = %d, want 2 (noise never converges)", withRetry.Retries)
	}
	if withRetry.Reps != 3*6 {
		t.Fatalf("Reps = %d, want 18 (three attempts of 6)", withRetry.Reps)
	}
	if withRetry.Elapsed <= without.Elapsed {
		t.Fatal("retries with backoff should consume more virtual time")
	}
	// Backoff pauses are part of the trajectory: 1ms + 2ms on top of
	// the extra repetitions.
	if withRetry.Elapsed-without.Elapsed < 3*time.Millisecond {
		t.Fatalf("backoff pauses missing from elapsed time: %v vs %v",
			withRetry.Elapsed, without.Elapsed)
	}
}

func TestOutlierRejectionAbsorbsInjectedSpike(t *testing.T) {
	// One lossy link injects rare RTO-length spikes into an otherwise
	// deterministic broadcast. With MAD rejection the trimmed series
	// must converge to the fault-free mean; without it the spike drags
	// the mean far off.
	const n = 4
	cfg := testConfig(n)
	base := func() Measurement {
		var got Measurement
		_, err := mpi.Run(cfg, func(r *mpi.Rank) {
			got = Measure(r, 0, MaxTiming, Options{}, func() {
				r.Bcast(0, make([]byte, 1000))
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}()

	faultyCfg := cfg
	faultyCfg.Faults = &faults.Plan{Loss: []faults.LinkLoss{
		{Src: 0, Dst: 1, Prob: 0.15, RTO: 10 * time.Millisecond, MaxRetr: 1},
	}}
	robust := func() Measurement {
		var got Measurement
		_, err := mpi.Run(faultyCfg, func(r *mpi.Rank) {
			// MinReps 30 forces enough repetitions for the 15% loss to
			// actually fire.
			got = Measure(r, 0, MaxTiming, Options{OutlierMAD: 3, MinReps: 30, MaxReps: 40}, func() {
				r.Bcast(0, make([]byte, 1000))
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}()

	if robust.Rejected == 0 {
		t.Fatalf("no spikes rejected at 8%% loss over %d reps", robust.Reps)
	}
	// The robust mean must sit within the CI target of the fault-free
	// mean; the 10ms spikes are ~50x the base time, so this fails
	// loudly if rejection is broken.
	if rel := math.Abs(robust.Mean-base.Mean) / base.Mean; rel > 0.025 {
		t.Fatalf("robust mean %v strays %.1f%% from fault-free %v",
			robust.Mean, 100*rel, base.Mean)
	}
	// Sanity: the raw series really does contain the spike.
	if stats.Max(robust.Samples) < 10*base.Mean {
		t.Fatalf("expected an RTO spike in the raw samples, max %v vs base %v",
			stats.Max(robust.Samples), base.Mean)
	}
}

func TestRobustStatsHelpers(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 100}
	kept, rejected := stats.RejectOutliers(xs, 3)
	if rejected != 1 || len(kept) != 4 {
		t.Fatalf("RejectOutliers = %v (%d rejected), want the spike gone", kept, rejected)
	}
	if m := stats.MAD([]float64{1, 2, 3, 4, 5}); m != 1 {
		t.Fatalf("MAD = %v, want 1", m)
	}
	if s, rej := stats.RobustSummarize(xs, 0.95, 0); rej != 0 || s.N != 5 {
		t.Fatalf("RobustSummarize with k=0 must not reject: %+v, %d", s, rej)
	}
}
