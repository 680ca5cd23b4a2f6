package experiment

import (
	"fmt"
	"time"

	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
)

// FaultsExp is the robustness experiment ("-exp faults"): it estimates
// the LMO model twice — on the healthy cluster and on the same cluster
// under a seeded fault plan (by default the reference plan of
// faults.Demo: a lossy link, a persistently degraded link and a
// straggler node) — and lays both models against the linear scatter
// each platform actually exhibits.
//
// The point the report makes: persistent faults (the straggler, the
// degraded link) are platform traits a robust estimation bakes into
// the model, while transient loss spikes are measurement noise the
// MAD-based outlier rejection and retry-with-backoff absorb. The
// degradation accounting of the estimation report (retries,
// non-converged measurements, dropped experiments, per-processor
// confidence) shows how gracefully the procedure got there.
func FaultsExp(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	n := cfg.Cluster.N()
	rep := &Report{
		ID:     "faults",
		Title:  "Robustness: LMO estimation under a seeded fault plan",
		XLabel: "message size (bytes)",
		YLabel: "time (s)",
	}

	clean := cfg
	clean.Faults = nil
	faulty := cfg
	if faulty.Faults.Empty() {
		faulty.Faults = faults.Demo(n)
	}
	faulty.Est.Mpib = robustMpib(faulty.Est.Mpib)

	msClean, repClean, err := clean.family("lmox")
	if err != nil {
		return nil, fmt.Errorf("clean estimation: %w", err)
	}
	msFaulty, repFaulty, err := faulty.family("lmox")
	if err != nil {
		return nil, fmt.Errorf("faulty estimation: %w", err)
	}

	obsClean, err := Observe(clean, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	// The faulty observation rejects spikes with the same MAD threshold
	// the estimation used (the probe reads Est.Mpib.OutlierMAD): the
	// comparison target is the platform's typical behaviour, not the
	// occasional RTO stall.
	obsFaulty, err := Observe(faulty, models.CollScatter, mpi.Linear)
	if err != nil {
		return nil, err
	}
	fstats := obsFaulty.Faults

	predClean := predict(cfg.Sizes, curve(msClean.LMO, models.CollScatter, mpi.Linear, cfg.Root, n))
	predFaulty := predict(cfg.Sizes, curve(msFaulty.LMO, models.CollScatter, mpi.Linear, cfg.Root, n))
	rep.Series = append(rep.Series,
		series("observed (healthy)", cfg.Sizes, obsClean.Mean),
		series("LMO healthy", cfg.Sizes, predClean),
		series("observed (faulty)", cfg.Sizes, obsFaulty.Mean),
		series("LMO faulty", cfg.Sizes, predFaulty),
	)

	errClean := meanAbsRelError(obsClean.Mean, predClean)
	errFaulty := meanAbsRelError(obsFaulty.Mean, predFaulty)
	rows := [][]string{
		{"platform", "experiments", "repetitions", "retries", "non-converged", "dropped", "min confidence", "scatter err"},
		accountingRow("healthy", repClean, errClean),
		accountingRow("faulty", repFaulty, errFaulty),
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "estimation accounting, each model vs its own platform", Rows: rows})
	rep.Tables = append(rep.Tables, TableBlock{Caption: "injected fault plan", Rows: planRows(faulty.Faults)})
	rep.Tables = append(rep.Tables, TableBlock{
		Caption: "injector activity during the faulty scatter sweep",
		Rows: [][]string{
			{"packets lost", "stall time", "crashes"},
			{fmt.Sprint(fstats.Lost), fstats.Stalled.Round(time.Millisecond).String(), fmt.Sprint(fstats.Crashes)},
		},
	})

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("prediction error vs the platform the model was estimated on: %.1f%% healthy, %.1f%% faulty — the straggler and the degraded link are platform traits the robust estimation captures; only the transient loss spikes are rejected as noise", 100*errClean, 100*errFaulty),
		"all faults are drawn from a dedicated RNG stream derived from the run seed: the same seed reproduces the same losses, stalls and results, and an empty plan leaves the trajectory bit-identical to a run without fault injection",
	)
	return rep, nil
}

// robustMpib fills the measurement options with the robustness defaults
// the fault experiment uses when the caller left them off.
func robustMpib(o mpib.Options) mpib.Options {
	if o.OutlierMAD == 0 {
		o.OutlierMAD = 3
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.MaxReps == 0 {
		o.MaxReps = 40
	}
	return o
}

// accountingRow formats one platform's estimation report for the table.
func accountingRow(name string, r estimate.Report, predErr float64) []string {
	minConf := 1.0
	for _, c := range r.Confidence {
		if c < minConf {
			minConf = c
		}
	}
	return []string{
		name,
		fmt.Sprint(r.Experiments),
		fmt.Sprint(r.Repetitions),
		fmt.Sprint(r.Retries),
		fmt.Sprint(r.NonConverged),
		fmt.Sprint(len(r.Dropped)),
		fmt.Sprintf("%.2f", minConf),
		fmt.Sprintf("%.1f%%", 100*predErr),
	}
}

// planRows renders a fault plan as table rows.
func planRows(p *faults.Plan) [][]string {
	node := func(i int) string {
		if i == faults.Any {
			return "*"
		}
		return fmt.Sprint(i)
	}
	rows := [][]string{{"fault", "where", "what"}}
	for _, l := range p.Loss {
		rows = append(rows, []string{"loss",
			fmt.Sprintf("link %s->%s", node(l.Src), node(l.Dst)),
			fmt.Sprintf("%.1f%% per transfer, RTO %v", 100*l.Prob, l.RTO)})
	}
	for _, d := range p.Degrade {
		window := "always"
		if d.Until > d.From {
			window = fmt.Sprintf("%v-%v", d.From, d.Until)
		}
		rows = append(rows, []string{"degrade",
			fmt.Sprintf("link %s->%s", node(d.Src), node(d.Dst)),
			fmt.Sprintf("latency x%g, rate x%g, %s", d.LatencyX, d.RateX, window)})
	}
	for _, s := range p.Stragglers {
		rows = append(rows, []string{"straggler", fmt.Sprintf("node %d", s.Node), fmt.Sprintf("CPU x%g", s.CPUX)})
	}
	for _, c := range p.Crashes {
		rows = append(rows, []string{"crash", fmt.Sprintf("node %d", c.Node), fmt.Sprintf("at %v", c.At)})
	}
	return rows
}
