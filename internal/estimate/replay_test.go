package estimate

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Where replay applies in the gather scan: Table I at platform seed 1,
// root 0, 20 repetitions at each of DefaultScanSizes' 55 sizes, in one
// job as ScanGather runs them. Each size is certified at its first
// repetition (the first size, whose measurement opens in another order
// than its repetitions close in, at its second) and records the rest as
// copies, except those whose look ahead in the escalation stream finds a
// value that could escalate: those are simulated, and the copies resume
// after them. So every profile simulates the 56 clean repetitions that
// Ideal does, and its escalated ones (a sample more than 100 ms above
// its size's fastest, which an escalation's stall of 180 ms or more
// leaves). The counts come from the HardSyncs the job released: one
// opens each size's measurement and one closes each simulated
// repetition. An observed scan simulates every repetition, and every
// size's samples must equal its samples.
func TestScanReplaysWhereSizesCannotVary(t *testing.T) {
	sizes := DefaultScanSizes()
	for _, tc := range []struct {
		prof                       *cluster.TCPProfile
		replayed, sizes, escalated int // repetitions recorded as copies, the sizes that recorded any, and those of them that escalated
	}{
		{cluster.LAM(), 943, 55, 18},
		{cluster.MPICH(), 866, 55, 34},
		{cluster.Ideal(), 1044, 55, 0},
	} {
		cfg := mpi.Config{Cluster: cluster.Table1(), Profile: tc.prof, Seed: 1}
		samples := make([][]float64, len(sizes))
		replayed, replaying, escalatedReplaying, clean := 0, 0, 0, 0
		_, err := mpi.Run(cfg, func(r *mpi.Rank) {
			for i, m := range sizes {
				before := r.SyncState()
				meas := scanSize(r, 0, m, 20)
				if r.Rank() != 0 {
					continue
				}
				after := r.SyncState()
				samples[i] = meas.Samples
				simulated := after.Syncs - before.Syncs - 1
				escalated, fastest := 0, stats.Min(meas.Samples)
				for _, x := range meas.Samples {
					if x > fastest+0.1 {
						escalated++
					}
				}
				clean += simulated - escalated
				if copies := meas.Reps - simulated; copies > 0 {
					replayed += copies
					replaying++
					if after.Net.Escalations > before.Net.Escalations {
						escalatedReplaying++
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		// The observed scan runs second, on the world the replayed job
		// leaves, so values that job left drawn ahead would show.
		observed, _, err := ScanGather(cfg, 0, sizes, 20, Options{Obs: obs.NewTrace()})
		if err != nil {
			t.Fatal(err)
		}
		var differ []int
		for i, m := range sizes {
			if !slices.Equal(samples[i], observed.Samples[i]) {
				differ = append(differ, m)
			}
		}
		if len(differ) > 0 {
			t.Fatalf("%s: sizes %v measure other samples than the observed scan", tc.prof.Name, differ)
		}
		if replayed != tc.replayed || replaying != tc.sizes || escalatedReplaying != tc.escalated {
			t.Errorf("%s: %d of %d repetitions recorded as copies, at %d sizes, %d of which escalated; want %d at %d, %d escalated",
				tc.prof.Name, replayed, 20*len(sizes), replaying, escalatedReplaying, tc.replayed, tc.sizes, tc.escalated)
		}
		if clean != 56 {
			t.Errorf("%s: %d clean repetitions simulated, want 56", tc.prof.Name, clean)
		}
	}
}
