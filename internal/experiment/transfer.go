package experiment

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/mpi"
)

// Transfer tests the §III observation that the LMO model splits into an
// analytic part (processor/network hardware parameters) and an
// empirical part (M1, M2, escalation statistics) that belongs to the
// MPI implementation: a model estimated under LAM is applied to a
// cluster running MPICH. The analytic predictions (scatter, small/large
// gather) transfer; the empirical gather thresholds do not, and
// carrying them over misclassifies the 65–125 KB range, where the two
// implementations genuinely differ.
func Transfer(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	n := cfg.Cluster.N()

	lamCfg := cfg
	lamCfg.Profile = cluster.LAM()
	mpichCfg := cfg
	mpichCfg.Profile = cluster.MPICH()

	// Estimate everything under LAM.
	lam, _, err := lamCfg.family("lmo")
	if err != nil {
		return nil, err
	}
	lmo := lam.LMO

	// Observe scatter under MPICH — the analytic part should transfer.
	scatterObs, err := Observe(mpichCfg, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	scatterPred := predict(scatterObs.Sizes, curve(lmo, models.CollScatter, mpi.Linear, cfg.Root, n))

	rep := &Report{
		ID:    "transfer",
		Title: "§III: transferring a LAM-estimated model to an MPICH cluster",
	}
	rows := [][]string{{"quantity", "transfers?", "evidence"}}
	rows = append(rows, []string{
		"analytic parameters (C, t, L, β)", "yes",
		fmt.Sprintf("LAM-estimated LMO predicts MPICH linear scatter with %.0f%% mean |rel.err| (the hardware did not change)",
			100*meanAbsRelError(scatterObs.Mean, scatterPred)),
	})

	// The 65–125 KB band: MPICH still escalates there (its M2 is
	// 125 KB) while the LAM-estimated thresholds say the region ended.
	probe := 96 << 10
	gObs, err := Observe(withSizes(mpichCfg, []int{probe}), models.CollGather, mpi.Linear)
	if err != nil {
		return nil, err
	}
	lamPred := curve(lmo, models.CollGather, mpi.Linear, cfg.Root, n)(probe)
	misclass := math.Abs(lamPred-gObs.Mean[0]) / gObs.Mean[0]
	rows = append(rows, []string{
		"empirical parameters (M1, M2, escalations)", "no",
		fmt.Sprintf("at 96 KB the LAM thresholds (M1=%dK, M2=%dK) predict the serialized regime, but MPICH (M2=125K) still escalates: %.0f%% error",
			lmo.Gather.M1>>10, lmo.Gather.M2>>10, 100*misclass),
	})

	// Re-detecting under MPICH restores the fit.
	mpich, _, err := mpichCfg.family("scan")
	if err != nil {
		return nil, err
	}
	lmoM := *lmo
	lmoM.Gather = mpich.Gather
	mpichPred := curve(&lmoM, models.CollGather, mpi.Linear, cfg.Root, n)(probe)
	refit := math.Abs(mpichPred-gObs.Mean[0]) / gObs.Mean[0]
	rows = append(rows, []string{
		"empirical parameters re-detected on MPICH", "—",
		fmt.Sprintf("a fresh irregularity scan (M1=%dK, M2=%dK) brings the 96 KB prediction back to %.0f%% error",
			mpich.Gather.M1>>10, mpich.Gather.M2>>10, 100*refit),
	})

	rep.Tables = append(rep.Tables, TableBlock{Caption: "what transfers across MPI implementations", Rows: rows})
	rep.Notes = append(rep.Notes,
		"the split mirrors the paper's design: analytic point-to-point parameters describe the hardware, the extra empirical parameters describe the MPI implementation's TCP behaviour and must be re-measured per implementation (§III)")
	return rep, nil
}

// withSizes returns cfg with the size sweep replaced.
func withSizes(cfg Config, sizes []int) Config {
	cfg.Sizes = sizes
	return cfg
}
