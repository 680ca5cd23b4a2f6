package autotune

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/mpi"
	"repro/internal/mpib"
)

// Where replay applies in a tune: on Table I under each profile, with
// the model estimated on that profile at platform seed 1, the tunes at
// config seeds 1–4 validate 336 shapes of ten repetitions each through
// the config's Probe. Most validations are certified at their second
// repetition, the first to start in the order it ends in, and record
// the other eight as copies; a validation whose look ahead in the
// escalation stream finds a value that could escalate simulates the
// next repetition, and most whose gather escalates inside (M1, M2)
// still record copies around their escalated repetitions. Each
// validation is timed again here as Simulate times it, and the count of
// simulated repetitions comes from the HardSyncs its job released: one
// opens the measurement and one closes each simulated repetition.
func TestValidationsReplayWhereTheyCannotVary(t *testing.T) {
	if testing.Short() {
		t.Skip("estimates three models and runs twelve tunes")
	}
	for _, tc := range []struct {
		prof      *cluster.TCPProfile
		certified int // validations that simulate two repetitions
		escalated int // validations that escalated and still recorded copies
	}{
		{cluster.LAM(), 318, 14},
		{cluster.MPICH(), 324, 11},
		{cluster.Ideal(), 336, 0},
	} {
		mcfg := mpi.Config{Cluster: cluster.Table1(), Profile: tc.prof, Seed: 1}
		opt := estimate.Options{Parallel: true}
		model, _, err := estimate.LMOX(mcfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		if model.Gather, _, err = estimate.DetectGatherIrregularity(mcfg, 0, estimate.DefaultScanSizes(), 20, opt); err != nil {
			t.Fatal(err)
		}
		validations, certified, escalated, escalatedCopied := 0, 0, 0, 0
		for seed := int64(1); seed <= 4; seed++ {
			cfg := experiment.Config{Cluster: cluster.Table1(), Profile: tc.prof, Seed: seed}
			res, err := Tune(context.Background(), cfg, model, Options{})
			if err != nil {
				t.Fatal(err)
			}
			p := cfg.Probe()
			for _, cell := range res.Cells {
				coll, err := collFor(cell.Op)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range cell.Ranked {
					var meas mpib.Measurement
					var simulated int
					job, err := mpi.Run(cfg.MPIConfig(), func(r *mpi.Rank) {
						syncs := r.SyncState().Syncs
						m := p.Measure(r, mpib.MaxTiming, coll, k.Candidate, cell.M)
						if r.Rank() == 0 {
							meas, simulated = m, r.SyncState().Syncs-syncs-1
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s, seed %d: %s %s at %d B", tc.prof.Name, seed, cell.Op, k.Candidate, cell.M)
					if meas.Mean != k.SimulatedS {
						t.Fatalf("%s: timed %v s here, %v s in the tune", where, meas.Mean, k.SimulatedS)
					}
					validations++
					if simulated < 2 || simulated > meas.Reps {
						t.Fatalf("%s: simulated %d of %d repetitions, want 2 to all", where, simulated, meas.Reps)
					}
					if simulated == 2 && meas.Reps == 10 {
						certified++
					}
					if job.Net.Escalations > 0 {
						escalated++
						if simulated < meas.Reps {
							escalatedCopied++
						}
					}
				}
			}
		}
		if validations != 336 || certified != tc.certified || escalatedCopied != tc.escalated {
			t.Errorf("%s: %d of %d validations simulate two repetitions and %d escalated and still recorded copies, want %d of 336 and %d",
				tc.prof.Name, certified, validations, escalatedCopied, tc.certified, tc.escalated)
		}
		if (tc.prof.Name == "ideal") != (escalated == 0) {
			t.Errorf("%s: %d validations escalated", tc.prof.Name, escalated)
		}
	}
}
