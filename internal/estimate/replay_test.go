package estimate

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Where replay applies in the gather scan: Table I at platform seed 1,
// root 0, 20 repetitions at each of DefaultScanSizes' 55 sizes, in one
// job as ScanGather runs them. A size whose gather cannot escalate is
// certified at its first or second repetition and records the rest as
// copies; a size whose gather escalated simulates all 20. The counts
// come from the HardSyncs the job released: one opens each size's
// measurement and one closes each simulated repetition.
func TestScanReplaysWhereSizesCannotVary(t *testing.T) {
	sizes := DefaultScanSizes()
	for _, tc := range []struct {
		prof            *cluster.TCPProfile
		replayed, sizes int // repetitions recorded as copies, and the sizes that recorded any
	}{
		{cluster.LAM(), 683, 36},
		{cluster.MPICH(), 379, 20},
		{cluster.Ideal(), 1044, 55},
	} {
		cfg := mpi.Config{Cluster: cluster.Table1(), Profile: tc.prof, Seed: 1}
		scan, _, err := ScanGather(cfg, 0, sizes, 20, Options{})
		if err != nil {
			t.Fatal(err)
		}
		replayed, replaying, escalated := 0, 0, 0
		var differ, escalatedReplayed []int
		_, err = mpi.Run(cfg, func(r *mpi.Rank) {
			for i, m := range sizes {
				before := r.SyncState()
				meas := scanSize(r, 0, m, 20)
				if r.Rank() != 0 {
					continue
				}
				after := r.SyncState()
				if !slices.Equal(meas.Samples, scan.Samples[i]) {
					differ = append(differ, m)
				}
				copies := meas.Reps - (after.Syncs - before.Syncs - 1)
				if copies > 0 {
					replayed += copies
					replaying++
				}
				if after.Net.Escalations > before.Net.Escalations {
					escalated++
					if copies > 0 {
						escalatedReplayed = append(escalatedReplayed, m)
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(differ) > 0 {
			t.Fatalf("%s: sizes %v measure other samples than ScanGather's", tc.prof.Name, differ)
		}
		if len(escalatedReplayed) > 0 {
			t.Errorf("%s: sizes %v escalated and still recorded copies", tc.prof.Name, escalatedReplayed)
		}
		if replayed != tc.replayed || replaying != tc.sizes {
			t.Errorf("%s: %d of %d repetitions recorded as copies, at %d sizes; want %d at %d",
				tc.prof.Name, replayed, 20*len(sizes), replaying, tc.replayed, tc.sizes)
		}
		if (tc.prof.Name == "ideal") != (escalated == 0) {
			t.Errorf("%s: %d sizes escalated", tc.prof.Name, escalated)
		}
	}
}
