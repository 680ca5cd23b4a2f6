package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/optimize"
	"repro/internal/stats"
)

// Ablation quantifies the design decisions DESIGN.md calls out:
//
//  1. Model ablation — the original five-parameter LMO (network latency
//     folded into the processor constants) against the paper's
//     six-parameter extension, on linear scatter prediction accuracy
//     and on recovered parameters.
//  2. Substrate ablation — the TCP irregularity machinery on and off,
//     showing how much of the observed collective time the leap and
//     the escalations contribute (what the traditional models miss).
func Ablation(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	n := cfg.Cluster.N()
	rep := &Report{ID: "ablation", Title: "Ablations: original vs extended LMO; TCP irregularities on/off"}

	// --- model ablation: the five-parameter solve over LMOX's records ---
	ms, _, err := cfg.family("lmox")
	if err != nil {
		return nil, err
	}
	ms5, _, err := cfg.family("lmo5")
	if err != nil {
		return nil, err
	}
	ext, orig := ms.LMO, ms5.LMO5
	// Score on the leap-free size range so the ablation isolates the
	// latency-separation effect: neither LMO variant models the TCP
	// leap, and its unmodeled cost can accidentally favour the variant
	// whose constants are inflated.
	scoreCfg := cfg
	if cfg.Profile.LeapAt > 0 {
		var below []int
		for _, m := range cfg.Sizes {
			if m < cfg.Profile.LeapAt {
				below = append(below, m)
			}
		}
		if len(below) >= 2 {
			scoreCfg.Sizes = below
		}
	}
	obs, err := Observe(scoreCfg, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	origPred := predict(obs.Sizes, curve(orig, models.CollScatter, mpi.Linear, cfg.Root, n))
	extPred := predict(obs.Sizes, curve(ext, models.CollScatter, mpi.Linear, cfg.Root, n))
	rows := [][]string{
		{"model", "scatter mean |rel.err| (below the leap)", "C misattribution"},
		{"LMO original (5 params)", fmt.Sprintf("%.1f%%", 100*meanAbsRelError(obs.Mean, origPred)),
			cErr(cfg, orig.C())},
		{"LMO extended (6 params)", fmt.Sprintf("%.1f%%", 100*meanAbsRelError(obs.Mean, extPred)),
			cErr(cfg, ext.C)},
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "model ablation: separating the fixed network latency", Rows: rows})

	// --- substrate ablation (full size range) ---
	obsFull, err := Observe(cfg, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	ideal := cfg
	ideal.Profile = cluster.Ideal()
	obsIdeal, err := Observe(ideal, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	gObs, err := Observe(cfg, models.CollGather, mpi.Linear)
	if err != nil {
		return nil, err
	}
	gIdeal, err := Observe(ideal, models.CollGather, mpi.Linear)
	if err != nil {
		return nil, err
	}
	rows = [][]string{{"size", "scatter TCP/ideal", "gather TCP/ideal"}}
	for i, m := range cfg.Sizes {
		rows = append(rows, []string{
			fmt.Sprintf("%dK", m>>10),
			fmt.Sprintf("%.2f×", obsFull.Mean[i]/obsIdeal.Mean[i]),
			fmt.Sprintf("%.2f×", gObs.Mean[i]/gIdeal.Mean[i]),
		})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "substrate ablation: TCP irregularities' contribution", Rows: rows})

	// --- protocol ablation: eager vs rendezvous sends ---
	// Under the rendezvous protocol the root of a linear scatter
	// serializes whole point-to-point times — the Hockney serial
	// reading's assumption. Eq (4) (and the whole Fig 1 argument)
	// presumes eager sends; this ablation makes the dependency visible.
	rdv := ideal
	rdv.Profile = cluster.Ideal().RendezvousAt(1)
	obsRdv, err := Observe(rdv, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	hv := ext.HockneyView()
	extScatter := curve(ext, models.CollScatter, mpi.Linear, cfg.Root, n)
	rows = [][]string{{"size", "LMO eq(4) err (eager)", "LMO eq(4) err (rendezvous)", "Hockney-serial err (rendezvous)"}}
	for i, m := range cfg.Sizes {
		eq4 := extScatter(m)
		serial := hv.ScatterLinearSerial(cfg.Root, m)
		rows = append(rows, []string{
			fmt.Sprintf("%dK", m>>10),
			fmt.Sprintf("%+.0f%%", 100*(eq4-obsIdeal.Mean[i])/obsIdeal.Mean[i]),
			fmt.Sprintf("%+.0f%%", 100*(eq4-obsRdv.Mean[i])/obsRdv.Mean[i]),
			fmt.Sprintf("%+.0f%%", 100*(serial-obsRdv.Mean[i])/obsRdv.Mean[i]),
		})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "protocol ablation: eager vs rendezvous sends", Rows: rows})
	rep.Notes = append(rep.Notes,
		"the original model folds L/2 into every processor constant; the extension separates it and predicts scatter better",
		"gather's TCP factor explodes in the irregular region (escalations) and stays >1 above M2 (ingress serialization); scatter only pays the leap",
		"under rendezvous sends eq (4) under-predicts badly while the Hockney serial sum becomes the right model — the LMO formulas encode the eager protocol's overlap")
	return rep, nil
}

func cErr(cfg Config, c []float64) string {
	s := 0.0
	for i, nd := range cfg.Cluster.Nodes {
		truth := nd.C.Seconds()
		d := (c[i] - truth) / truth
		if d < 0 {
			d = -d
		}
		s += d
	}
	return fmt.Sprintf("%.0f%% mean |err| vs ground truth", 100*s/float64(len(c)))
}

// AlgZoo extends the paper's Fig 6 to the full algorithm zoo (linear,
// binomial, binary, chain): every algorithm is observed across sizes,
// the LMO model predicts each, and the model-driven selection is
// scored against the observed fastest.
func AlgZoo(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	n := cfg.Cluster.N()
	ms, _, err := cfg.family("lmox")
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "algzoo",
		Title:  "Extension: scatter algorithm zoo — observation vs LMO prediction",
		XLabel: "message size (bytes)",
		YLabel: "execution time (s)",
	}
	algs := mpi.Algorithms()
	observed := map[mpi.Alg]Observation{}
	for _, alg := range algs {
		o, err := Observe(cfg, models.CollScatter, alg)
		if err != nil {
			return nil, err
		}
		observed[alg] = o
		rep.Series = append(rep.Series, series("observed "+alg.String(), o.Sizes, o.Mean))
	}
	for _, alg := range algs {
		pred := predict(cfg.Sizes, curve(ms.LMO, models.CollScatter, alg, cfg.Root, n))
		rep.Series = append(rep.Series, series("LMO "+alg.String(), cfg.Sizes, pred))
	}

	rows := [][]string{{"size", "observed fastest", "LMO picks", "penalty of LMO pick"}}
	correct := 0
	for i, m := range cfg.Sizes {
		fastest := algs[0]
		for _, alg := range algs[1:] {
			if observed[alg].Mean[i] < observed[fastest].Mean[i] {
				fastest = alg
			}
		}
		pick, _ := optimize.SelectAlgAmong(ms.LMO, models.CollScatter, cfg.Root, n, m, nil)
		if pick == fastest {
			correct++
		}
		penalty := observed[pick].Mean[i] / observed[fastest].Mean[i]
		rows = append(rows, []string{
			fmt.Sprintf("%dK", m>>10), fastest.String(), pick.String(), fmt.Sprintf("%.2f×", penalty),
		})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "model-driven selection over four algorithms", Rows: rows})
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"LMO picked the observed-fastest algorithm on %d/%d sizes; where it differed, the penalty column shows the cost of the model's choice",
		correct, len(cfg.Sizes)))
	return rep, nil
}

// Timing compares the MPIBlib timing methods of §IV: root-side timing
// (fast, used for estimation) against max timing (the true makespan)
// on linear scatter and gather across sizes.
func Timing(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	// The comparison isolates the timing methods themselves, so it runs
	// without TCP noise: otherwise the two measurement loops sample
	// different random escalations and their ratio is meaningless.
	cfg.Profile = cluster.Ideal()
	rep := &Report{
		ID:     "timing",
		Title:  "§IV: timing methods — root-side vs makespan",
		XLabel: "message size (bytes)",
		YLabel: "execution time (s)",
	}
	type row struct{ root, max []float64 }
	results := map[models.Collective]*row{}
	p := cfg.Probe()
	linear := optimize.Shape{Alg: mpi.Linear}
	for _, coll := range []models.Collective{models.CollScatter, models.CollGather} {
		r := &row{make([]float64, len(cfg.Sizes)), make([]float64, len(cfg.Sizes))}
		results[coll] = r
		_, err := mpi.Run(cfg.MPIConfig(), func(rk *mpi.Rank) {
			for si, m := range cfg.Sizes {
				mr := p.Measure(rk, mpib.RootTiming, coll, linear, m)
				mm := p.Measure(rk, mpib.MaxTiming, coll, linear, m)
				if rk.Rank() == 0 {
					r.root[si] = mr.Mean
					r.max[si] = mm.Mean
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	rep.Series = append(rep.Series,
		series("scatter root-timing", cfg.Sizes, results[models.CollScatter].root),
		series("scatter makespan", cfg.Sizes, results[models.CollScatter].max),
		series("gather root-timing", cfg.Sizes, results[models.CollGather].root),
		series("gather makespan", cfg.Sizes, results[models.CollGather].max),
	)
	// Root timing underestimates scatter (the root finishes first) but
	// matches gather (the root finishes last).
	gapScatter := stats.Mean(ratio(results[models.CollScatter].root, results[models.CollScatter].max))
	gapGather := stats.Mean(ratio(results[models.CollGather].root, results[models.CollGather].max))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"root-timing captures %.0f%% of the scatter makespan but %.0f%% of the gather makespan — why sender-side timing works for the round-trip-style estimation experiments (§IV) yet observation of scatter needs the makespan",
		100*gapScatter, 100*gapGather))
	return rep, nil
}

func ratio(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		if b[i] != 0 {
			out[i] = a[i] / b[i]
		}
	}
	return out
}
