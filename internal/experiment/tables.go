package experiment

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/models"
)

// Table1 reproduces Table I: the specification of the 16-node
// heterogeneous cluster, plus the synthetic ground-truth delays the
// simulator substitutes for the hardware.
func Table1(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "table1", Title: "Table I: specification of the heterogeneous cluster"}
	rows := [][]string{{"node", "model", "OS", "C_i (ground truth)", "t_i (ground truth)"}}
	for _, nd := range cfg.Cluster.Nodes {
		rows = append(rows, []string{
			nd.Name, nd.Model, nd.OS,
			nd.C.String(), fmt.Sprintf("%.2g s/B", nd.T),
		})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "nodes", Rows: rows})
	l := cfg.Cluster.Links[0][1]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"single switch; link ground truth: L=%v, β=%.3g B/s; TCP profile %q (M1=%d, M2=%d, leap at %d)",
		l.L, l.Beta, cfg.Profile.Name, cfg.Profile.M1, cfg.Profile.M2, cfg.Profile.LeapAt))
	return rep, nil
}

// Table2 reproduces Table II: the linear scatter and gather predictions
// of each model, rendered symbolically (the paper's formulas) and
// evaluated numerically at sample sizes from the estimated parameters.
func Table2(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	ms, err := EstimateAll(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Cluster.N()
	rep := &Report{ID: "table2", Title: "Table II: prediction of the execution time of linear scatter and gather"}

	formulas := [][]string{
		{"model", "linear scatter", "linear gather"},
		{"het-Hockney", "Σ_{i≠r}(α_ri + β_ri·M)", "same as scatter"},
		{"LogGP", "L + 2o + (n-1)(M-1)G + (n-2)g", "same as scatter"},
		{"PLogP", "L + (n-1)·g(M)", "same as scatter"},
		{"LMO", "(n-1)(C_r+M·t_r) + max_i(L_ri + C_i + M(1/β_ri + t_i))",
			"(n-1)(C_r+M·t_r) + {max_i(…) for M<M1; Σ_i(…) for M>M2}"},
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "formulas (paper Table II)", Rows: formulas})

	sampleSizes := []int{1 << 10, 32 << 10, 128 << 10}
	rows := [][]string{{"model"}}
	for _, m := range sampleSizes {
		rows[0] = append(rows[0], fmt.Sprintf("scatter@%dK", m>>10), fmt.Sprintf("gather@%dK", m>>10))
	}
	type entry struct {
		name  string
		model models.CollectivePredictor
	}
	entries := []entry{{"het-Hockney", ms.Het}, {"LogGP", ms.LogGP}, {"PLogP", ms.PLogP}, {"LMO", ms.LMO}}
	for _, e := range entries {
		row := []string{e.name}
		scatter := curve(e.model, models.CollScatter, collective.AlgLinear, cfg.Root, n)
		gather := curve(e.model, models.CollGather, collective.AlgLinear, cfg.Root, n)
		for _, m := range sampleSizes {
			row = append(row, fmt.Sprintf("%.4fs", scatter(m)), fmt.Sprintf("%.4fs", gather(m)))
		}
		rows = append(rows, row)
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "numeric predictions (estimated parameters)", Rows: rows})
	rep.Notes = append(rep.Notes,
		"only the LMO model distinguishes gather from scatter: above M2 the gather prediction is steeper (sum instead of max), matching the serialized root ingress")
	return rep, nil
}

// EstCost reproduces the §IV estimation-cost result: serial vs parallel
// estimation of the heterogeneous Hockney model on the switched
// cluster gives identical parameters at a fraction of the time (the
// paper measured 16 s vs 5 s), and reports the LMO estimation cost.
func EstCost(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	serial, parallel := cfg, cfg
	serial.Est.Parallel, parallel.Est.Parallel = false, true

	s, repS, errS := serial.family("hethockney")
	p, repP, errP := parallel.family("hethockney")
	_, repLMO, errLMO := parallel.family("lmox")
	if err := cmp.Or(errS, errP, errLMO); err != nil {
		return nil, err
	}

	// Largest relative parameter difference between the two schedules.
	maxDiff := 0.0
	n := cfg.Cluster.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if d := relDiff(s.Het.Alpha[i][j], p.Het.Alpha[i][j]); d > maxDiff {
				maxDiff = d
			}
			if d := relDiff(s.Het.Beta[i][j], p.Het.Beta[i][j]); d > maxDiff {
				maxDiff = d
			}
		}
	}

	rep := &Report{ID: "estcost", Title: "§IV: cost of parameter estimation, serial vs parallel schedules"}
	rows := [][]string{
		{"procedure", "experiments", "repetitions", "virtual cost"},
		{"het-Hockney serial", fmt.Sprint(repS.Experiments), fmt.Sprint(repS.Repetitions), repS.Cost.Round(time.Millisecond).String()},
		{"het-Hockney parallel", fmt.Sprint(repP.Experiments), fmt.Sprint(repP.Repetitions), repP.Cost.Round(time.Millisecond).String()},
		{"LMO parallel", fmt.Sprint(repLMO.Experiments), fmt.Sprint(repLMO.Repetitions), repLMO.Cost.Round(time.Millisecond).String()},
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "estimation cost", Rows: rows})
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("parallel speedup %.1f× with max parameter deviation %.2f%% (paper: 16s → 5s, same values)",
			float64(repS.Cost)/float64(repP.Cost), 100*maxDiff))
	return rep, nil
}

// Irreg reproduces the §III observation that the irregularity
// thresholds are implementation-specific: LAM 7.1.3 shows M1≈4 KB,
// M2≈65 KB while MPICH 1.2.7 shows M1≈3 KB, M2≈125 KB.
func Irreg(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "irreg", Title: "§III: gather irregularity thresholds per MPI implementation"}
	rows := [][]string{{"profile", "ground truth M1/M2", "detected M1/M2", "dominant escalations"}}
	for _, prof := range []*cluster.TCPProfile{cluster.LAM(), cluster.MPICH()} {
		c := cfg
		c.Profile = prof
		ms, _, err := c.family("scan")
		if err != nil {
			return nil, err
		}
		modes := "none"
		if len(ms.Gather.EscModes) > 0 {
			modes = ""
			for i, md := range ms.Gather.EscModes {
				if i > 0 {
					modes += ", "
				}
				modes += fmt.Sprintf("%.0fms×%d", md.Value*1000, md.Count)
				if i == 2 {
					break
				}
			}
		}
		rows = append(rows, []string{
			prof.Name,
			fmt.Sprintf("%dK/%dK", prof.M1>>10, prof.M2>>10),
			fmt.Sprintf("%dK/%dK", ms.Gather.M1>>10, ms.Gather.M2>>10),
			modes,
		})
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "detected irregularity regions", Rows: rows})
	return rep, nil
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	den := a
	if den < 0 {
		den = -den
	}
	if den == 0 {
		return 1
	}
	return d / den
}
