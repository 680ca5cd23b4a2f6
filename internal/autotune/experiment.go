package autotune

import (
	"context"
	"fmt"

	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/mpi"
	"repro/internal/optimize"
	"repro/internal/tuned"
)

// TuneSizes is the default size sweep of the tuning experiment: it
// brackets the LAM irregular region (roughly 4–64 KB on the Table 1
// cluster) so the decision table has to switch shapes at least twice.
func TuneSizes() []int {
	return []int{1 << 10, 4 << 10, 8 << 10, 16 << 10, 24 << 10, 32 << 10, 48 << 10, 64 << 10}
}

// Experiment is the end-to-end auto-tuning reproduction: estimate an
// LMO model (with gather-irregularity detection) on the configured
// cluster, run the tuner over the irregular-region size sweep, and
// report the decision table against a naive linear-gather baseline.
// Inside the irregular region the tuner must rediscover the Fig 7
// optimization — gather split into sub-M1 segments — which beats the
// naive gather by roughly an order of magnitude.
func Experiment(ctx context.Context, cfg experiment.Config) (*experiment.Report, *Result, error) {
	def := experiment.Default()
	if cfg.Cluster == nil {
		cfg.Cluster = def.Cluster
	}
	if cfg.Profile == nil {
		cfg.Profile = def.Profile
	}
	if cfg.ScanReps == 0 {
		cfg.ScanReps = def.ScanReps
	}

	est, _, err := estimate.Family(nil, cfg.MPIConfig(), "lmo", cfg.Root, cfg.ScanReps, cfg.Est)
	if err != nil {
		return nil, nil, fmt.Errorf("autotune: %w", err)
	}

	res, err := Tune(ctx, cfg, est.LMO, Options{
		MsgSizes:    TuneSizes(),
		ClusterName: "table1",
	})
	if err != nil {
		return nil, nil, err
	}

	rep := &experiment.Report{
		ID:     "tune",
		Title:  "Model-guided auto-tuning of scatter/gather (LMO prune + simulator validation)",
		XLabel: "message size (bytes)",
		YLabel: "makespan (s)",
	}
	rows := [][]string{{"op", "size", "chosen", "predicted (s)", "simulated (s)", "naive linear (s)", "speedup"}}
	var bestGatherSpeedup float64
	for _, cell := range res.Cells {
		naive, err := Simulate(cfg, cell.Op, optimize.Shape{Alg: mpi.Linear}, cell.M)
		if err != nil {
			return nil, nil, err
		}
		speedup := 0.0
		if cell.Winner.SimulatedS > 0 {
			speedup = naive / cell.Winner.SimulatedS
		}
		if cell.Op == tuned.OpGather && speedup > bestGatherSpeedup {
			bestGatherSpeedup = speedup
		}
		rows = append(rows, []string{
			string(cell.Op),
			fmt.Sprintf("%dK", cell.M>>10),
			cell.Winner.Candidate.String(),
			fmt.Sprintf("%.5f", cell.Winner.PredictedS),
			fmt.Sprintf("%.5f", cell.Winner.SimulatedS),
			fmt.Sprintf("%.5f", naive),
			fmt.Sprintf("%.1f×", speedup),
		})
	}
	rep.Tables = append(rep.Tables, experiment.TableBlock{
		Caption: "tuned decisions vs naive linear (simulated makespans)",
		Rows:    rows,
	})
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("candidate space: %d shapes per cell; %d simulator validations after the closed-form prune (top-%d of each cell)",
			res.Candidates, res.Simulated, len(res.Cells[0].Ranked)),
		fmt.Sprintf("closed-form top-1 agreed with the simulator on %.0f%% of cells", 100*res.Agreement),
		fmt.Sprintf("best tuned-gather speedup over naive linear: %.1f× (paper's Fig 7 reports ~10× inside the irregular region)", bestGatherSpeedup),
	)
	if irr := est.LMO.Gather; irr.Valid() {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"detected irregular region [%d, %d] bytes; split segment %d B (M1)", irr.M1, irr.M2, irr.M1))
	}
	return rep, res, nil
}
