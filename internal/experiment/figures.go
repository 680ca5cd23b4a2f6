package experiment

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/optimize"
)

// Fig1 reproduces Figure 1: the four Hockney readings of linear
// scatter — homogeneous/heterogeneous × serial/parallel — against the
// observation. The serial readings are pessimistic, the parallel ones
// optimistic; neither matches.
func Fig1(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ms, _, err := cfg.family("hethockney")
	if err != nil {
		return nil, err
	}
	het, hom := ms.Het, ms.Hom
	obs, err := Observe(cfg, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	n := cfg.Cluster.N()
	rep := &Report{
		ID:     "fig1",
		Title:  fmt.Sprintf("Fig 1: linear scatter on the %d-node cluster — Hockney predictions vs observation", n),
		XLabel: "message size (bytes)",
		YLabel: "execution time (s)",
	}
	rep.Series = append(rep.Series,
		series("observed", obs.Sizes, obs.Mean),
		series("hom-Hockney serial", obs.Sizes, predict(obs.Sizes, func(m int) float64 { return hom.ScatterLinearSerial(n, m) })),
		series("hom-Hockney parallel", obs.Sizes, predict(obs.Sizes, func(m int) float64 { return hom.ScatterLinearParallel(n, m) })),
		series("het-Hockney serial", obs.Sizes, predict(obs.Sizes, func(m int) float64 { return het.ScatterLinearSerial(cfg.Root, m) })),
		series("het-Hockney parallel", obs.Sizes, predict(obs.Sizes, func(m int) float64 { return het.ScatterLinearParallel(cfg.Root, m) })),
	)
	serialErr := meanAbsRelError(obs.Mean, predict(obs.Sizes, func(m int) float64 { return het.ScatterLinearSerial(cfg.Root, m) }))
	parErr := meanAbsRelError(obs.Mean, predict(obs.Sizes, func(m int) float64 { return het.ScatterLinearParallel(cfg.Root, m) }))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("het-Hockney serial over-predicts (mean |rel.err| %.0f%%), parallel under-predicts (%.0f%%): the Hockney parameters cannot separate the root's serialized processing from the parallel transfers.", 100*serialErr, 100*parErr))
	return rep, nil
}

// Fig2 reproduces Figure 2: the binomial communication tree for 16
// processors with per-arc block counts.
func Fig2(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	n := cfg.Cluster.N()
	tree := collective.Binomial(n, cfg.Root)
	rep := &Report{
		ID:    "fig2",
		Title: fmt.Sprintf("Fig 2: binomial communication tree for scatter/gather, %d processors", n),
	}
	rows := [][]string{{"rank", "parent", "depth", "blocks over incoming arc", "children"}}
	for r := 0; r < n; r++ {
		parent := "-"
		if tree.Parent[r] >= 0 {
			parent = fmt.Sprint(tree.Parent[r])
		}
		rows = append(rows, []string{
			fmt.Sprint(r), parent, fmt.Sprint(tree.Depth(r)),
			fmt.Sprint(tree.Blocks(r)), fmt.Sprint(tree.Children[r]),
		})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "arc block counts", Rows: rows})
	rep.Notes = append(rep.Notes, "tree rendering:\n"+tree.String())
	return rep, nil
}

// Fig3 reproduces Figure 3: homogeneous vs heterogeneous Hockney
// predictions of the binomial scatter against the observation — the
// heterogeneous recursion (eq 1) tracks the observation much better.
func Fig3(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ms, _, err := cfg.family("hethockney")
	if err != nil {
		return nil, err
	}
	het, hom := ms.Het, ms.Hom
	obs, err := Observe(cfg, models.CollScatter, mpi.Binomial)
	if err != nil {
		return nil, err
	}
	n := cfg.Cluster.N()
	rep := &Report{
		ID:     "fig3",
		Title:  "Fig 3: binomial scatter — homogeneous vs heterogeneous Hockney",
		XLabel: "message size (bytes)",
		YLabel: "execution time (s)",
	}
	homPred := predict(obs.Sizes, curve(hom, models.CollScatter, mpi.Binomial, cfg.Root, n))
	hetPred := predict(obs.Sizes, curve(het, models.CollScatter, mpi.Binomial, cfg.Root, n))
	rep.Series = append(rep.Series,
		series("observed", obs.Sizes, obs.Mean),
		series("hom-Hockney (eq 3)", obs.Sizes, homPred),
		series("het-Hockney (eq 1)", obs.Sizes, hetPred),
	)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"mean |rel.err|: hom %.0f%%, het %.0f%% — the recursive heterogeneous formula approximates the binomial scatter much better (paper §II).",
		100*meanAbsRelError(obs.Mean, homPred), 100*meanAbsRelError(obs.Mean, hetPred)))
	return rep, nil
}

// Fig4 reproduces Figure 4: linear scatter predicted by every model —
// het-Hockney, LogGP, PLogP and LMO (eq 4) — against the observation
// with its 64 KB leap.
func Fig4(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ms, err := EstimateAll(cfg)
	if err != nil {
		return nil, err
	}
	obs, err := Observe(cfg, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	n := cfg.Cluster.N()
	rep := &Report{
		ID:     "fig4",
		Title:  "Fig 4: linear scatter — traditional models vs LMO vs observation",
		XLabel: "message size (bytes)",
		YLabel: "execution time (s)",
	}
	preds := []struct {
		name  string
		model models.CollectivePredictor
	}{{"het-Hockney", ms.Het}, {"LogGP", ms.LogGP}, {"PLogP", ms.PLogP}, {"LMO (eq 4)", ms.LMO}}
	rep.Series = append(rep.Series, series("observed", obs.Sizes, obs.Mean))
	rows := [][]string{{"model", "mean |rel.err|"}}
	for _, p := range preds {
		ys := predict(obs.Sizes, curve(p.model, models.CollScatter, mpi.Linear, cfg.Root, n))
		rep.Series = append(rep.Series, series(p.name, obs.Sizes, ys))
		rows = append(rows, []string{p.name, fmt.Sprintf("%.1f%%", 100*meanAbsRelError(obs.Mean, ys))})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "prediction accuracy (linear scatter)", Rows: rows})
	return rep, nil
}

// Fig5 reproduces Figure 5: linear gather. Only the LMO model follows
// the two slopes (parallel below M1, serialized above M2) and brackets
// the escalation band in between.
func Fig5(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ms, err := EstimateAll(cfg)
	if err != nil {
		return nil, err
	}
	obs, err := Observe(cfg, models.CollGather, mpi.Linear)
	if err != nil {
		return nil, err
	}
	n := cfg.Cluster.N()
	rep := &Report{
		ID:     "fig5",
		Title:  "Fig 5: linear gather — traditional models vs LMO vs observation",
		XLabel: "message size (bytes)",
		YLabel: "execution time (s)",
	}
	rep.Series = append(rep.Series,
		series("observed (mean)", obs.Sizes, obs.Mean),
		series("observed (worst rep)", obs.Sizes, obs.Max),
	)
	rows := [][]string{{"model", "mean |rel.err| vs mean obs"}}
	preds := []struct {
		name  string
		model models.CollectivePredictor
	}{{"het-Hockney", ms.Het}, {"LogGP", ms.LogGP}, {"PLogP", ms.PLogP}, {"LMO (eq 5)", ms.LMO}}
	for _, p := range preds {
		ys := predict(obs.Sizes, curve(p.model, models.CollGather, mpi.Linear, cfg.Root, n))
		rep.Series = append(rep.Series, series(p.name, obs.Sizes, ys))
		rows = append(rows, []string{p.name, fmt.Sprintf("%.1f%%", 100*meanAbsRelError(obs.Mean, ys))})
	}
	lo := predict(obs.Sizes, func(m int) float64 { l, _ := ms.LMO.GatherLinearBand(cfg.Root, n, m); return l })
	hi := predict(obs.Sizes, func(m int) float64 { _, h := ms.LMO.GatherLinearBand(cfg.Root, n, m); return h })
	rep.Series = append(rep.Series,
		series("LMO band low", obs.Sizes, lo),
		series("LMO band high", obs.Sizes, hi),
	)
	rep.Tables = append(rep.Tables, TableBlock{Caption: "prediction accuracy (linear gather)", Rows: rows})
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"LMO empirical parameters: M1=%d B, M2=%d B, escalation modes %v (per-op probability %.2f→%.2f)",
		ms.LMO.Gather.M1, ms.LMO.Gather.M2, ms.LMO.Gather.EscModes, ms.LMO.Gather.ProbLow, ms.LMO.Gather.ProbHigh))
	return rep, nil
}

// Fig6 reproduces Figure 6: for 100 KB ≤ M ≤ 200 KB, the Hockney model
// mispredicts that binomial scatter beats linear, while the LMO
// prediction matches the observed ordering.
func Fig6(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	cfg.Sizes = []int{100 << 10, 120 << 10, 140 << 10, 160 << 10, 180 << 10, 200 << 10}
	ms, err := EstimateAll(cfg)
	if err != nil {
		return nil, err
	}
	obsLin, err := Observe(cfg, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	obsBin, err := Observe(cfg, models.CollScatter, mpi.Binomial)
	if err != nil {
		return nil, err
	}
	n := cfg.Cluster.N()
	rep := &Report{
		ID:     "fig6",
		Title:  "Fig 6: linear vs binomial scatter, 100–200 KB — algorithm selection",
		XLabel: "message size (bytes)",
		YLabel: "execution time (s)",
	}
	rep.Series = append(rep.Series,
		series("observed linear", obsLin.Sizes, obsLin.Mean),
		series("observed binomial", obsBin.Sizes, obsBin.Mean),
		series("het-Hockney linear", cfg.Sizes, predict(cfg.Sizes, curve(ms.Het, models.CollScatter, mpi.Linear, cfg.Root, n))),
		series("het-Hockney binomial", cfg.Sizes, predict(cfg.Sizes, curve(ms.Het, models.CollScatter, mpi.Binomial, cfg.Root, n))),
		series("LMO linear", cfg.Sizes, predict(cfg.Sizes, curve(ms.LMO, models.CollScatter, mpi.Linear, cfg.Root, n))),
		series("LMO binomial", cfg.Sizes, predict(cfg.Sizes, curve(ms.LMO, models.CollScatter, mpi.Binomial, cfg.Root, n))),
	)
	rows := [][]string{{"size", "observed faster", "Hockney picks", "LMO picks"}}
	hockneyRight, lmoRight := 0, 0
	linBin := []mpi.Alg{mpi.Linear, mpi.Binomial}
	for i, m := range cfg.Sizes {
		observed := mpi.Linear
		if obsBin.Mean[i] < obsLin.Mean[i] {
			observed = mpi.Binomial
		}
		hPick, _ := optimize.SelectAlgAmong(ms.Het, models.CollScatter, cfg.Root, n, m, linBin)
		lPick, _ := optimize.SelectAlgAmong(ms.LMO, models.CollScatter, cfg.Root, n, m, linBin)
		if hPick == observed {
			hockneyRight++
		}
		if lPick == observed {
			lmoRight++
		}
		rows = append(rows, []string{fmt.Sprintf("%dK", m>>10), observed.String(), hPick.String(), lPick.String()})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "algorithm choices", Rows: rows})
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"correct algorithm decisions: Hockney %d/%d, LMO %d/%d (paper: Hockney switches in favour of binomial, wrongly; LMO decides correctly)",
		hockneyRight, len(cfg.Sizes), lmoRight, len(cfg.Sizes)))
	return rep, nil
}

// Fig7 reproduces Figure 7: the LMO-guided optimization of linear
// gather — splitting medium messages into sub-M1 segments — against
// the native gather inside the irregularity region.
func Fig7(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	// Medium sizes inside the LAM irregular region.
	cfg.Sizes = []int{8 << 10, 16 << 10, 24 << 10, 32 << 10, 40 << 10, 48 << 10, 56 << 10}
	ms, _, err := cfg.family("scan")
	if err != nil {
		return nil, err
	}
	if !ms.Gather.Valid() {
		return nil, fmt.Errorf("fig7: no irregularity region detected; nothing to optimize")
	}

	native, err := Observe(cfg, models.CollGather, mpi.Linear)
	if err != nil {
		return nil, err
	}
	optimized, err := observe(cfg, models.CollGather, func(m int) optimize.Shape { return optimize.OptimizedGatherShape(ms.Gather, m) })
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:     "fig7",
		Title:  "Fig 7: LMO model-based optimization of linear gather",
		XLabel: "message size (bytes)",
		YLabel: "execution time (s)",
	}
	rep.Series = append(rep.Series,
		series("native gather (mean)", native.Sizes, native.Mean),
		series("optimized gather (mean)", optimized.Sizes, optimized.Mean),
	)
	rows := [][]string{{"size", "native (s)", "optimized (s)", "speedup"}}
	var totalSpeed float64
	cnt := 0
	for i, m := range cfg.Sizes {
		sp := 0.0
		if optimized.Mean[i] > 0 {
			sp = native.Mean[i] / optimized.Mean[i]
		}
		if optimize.ShouldSplitGather(ms.Gather, m) {
			totalSpeed += sp
			cnt++
		}
		rows = append(rows, []string{
			fmt.Sprintf("%dK", m>>10),
			fmt.Sprintf("%.4f", native.Mean[i]),
			fmt.Sprintf("%.4f", optimized.Mean[i]),
			fmt.Sprintf("%.1f×", sp),
		})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "native vs optimized gather", Rows: rows})
	if cnt > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"mean speedup inside the irregular region: %.1f× (paper reports ~10×); segment size %d B (M1)",
			totalSpeed/float64(cnt), optimize.GatherSegment(ms.Gather)))
	}
	return rep, nil
}
