package campaign

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
)

// runTaskFn is the task executor; tests substitute it to exercise the
// engine's panic/timeout/cancellation paths without a simulator run.
var runTaskFn = runTask

// runTask executes one grid point in its own simulated universe.
func runTask(g Grid, t Task) Result {
	var r Result
	switch t.Target.Kind {
	case Experiment:
		runExperiment(g, t, &r)
	case Estimator:
		runEstimator(g, t, &r)
	}
	return r
}

func (g Grid) experimentConfig(t Task) experiment.Config {
	cfg := experiment.Default()
	cfg.Cluster = t.Cluster.Cluster
	cfg.Profile = t.Profile
	cfg.Seed = t.Seed
	cfg.Root = g.Root
	cfg.Est = g.Est
	cfg.ObsReps = g.ObsReps
	return cfg
}

// runExperiment runs a figure/table reproduction and derives
// prediction-error metrics: each prediction series' mean |rel.err|
// against the observation (experiment.Report.RelErrors) as
// "relerr.<series>". Reports without an observation (tree/table
// reproductions) yield no metrics.
func runExperiment(g Grid, t Task, r *Result) {
	runner := experiment.Lookup(t.Target.ID)
	rep, err := runner.Run(g.experimentConfig(t))
	if err != nil {
		r.Err = err.Error()
		return
	}
	r.Series = rep.Series
	if errs := rep.RelErrors(); errs != nil {
		r.Metrics = make(map[string]float64, len(errs))
		// Keyed map-to-map transform; each series' entry is independent.
		//lmovet:commutative
		for name, e := range errs {
			r.Metrics["relerr."+name] = e
		}
	}
}

// runEstimator estimates the target's model family through the
// estimation table (estimate.Family) and records the models (for the
// registry) and flat metrics (for seed aggregation): the report totals
// cost_s, experiments and repetitions, each procedure's cost_s.<name>,
// and the parameters of every model estimated.
func runEstimator(g Grid, t Task, r *Result) {
	cfg := mpi.Config{Cluster: t.Cluster.Cluster, Profile: t.Profile, Seed: t.Seed}
	m, rep, err := estimate.Family(nil, cfg, t.Target.ID, g.Root, 20, g.Est)
	if err != nil {
		r.Err = err.Error()
		return
	}
	met := map[string]float64{
		"cost_s":      rep.Cost.Seconds(),
		"experiments": float64(rep.Experiments),
		"repetitions": float64(rep.Repetitions),
	}
	// Keyed map-to-map transform; each procedure's entry is independent.
	//lmovet:commutative
	for proc, c := range m.Costs {
		met["cost_s."+proc] = c.Seconds()
	}
	modelMetrics(met, m)
	r.Metrics = met
	if m.Set != (models.Set{}) {
		r.Models = m.File()
		r.Models.Meta = &models.Meta{
			Cluster: t.Cluster.Name,
			Nodes:   t.Cluster.Cluster.N(),
			Profile: t.Profile.Name,
			Seed:    t.Seed,
		}
	}
}

// modelMetrics flattens the parameters of every model present, with a
// representative link (0, 1) for the per-pair ones, and the gather
// scan's region when it found one.
func modelMetrics(met map[string]float64, m *estimate.Models) {
	if m.Hom != nil {
		met["hockney.alpha"], met["hockney.beta"] = m.Hom.Alpha, m.Hom.Beta
	}
	if m.Het != nil {
		met["hethockney.alpha[0][1]"] = m.Het.Alpha[0][1]
		met["hethockney.beta[0][1]"] = m.Het.Beta[0][1]
	}
	if m.LogP != nil {
		met["logp.L"], met["logp.o"], met["logp.g"] = m.LogP.L, m.LogP.O, m.LogP.G
	}
	if m.LogGP != nil {
		met["loggp.G"] = m.LogGP.BigG
	}
	if m.PLogP != nil {
		met["plogp.L"] = m.PLogP.L
		met["plogp.g(1)"] = m.PLogP.Gap(1)
		met["plogp.g(64K)"] = m.PLogP.Gap(64 << 10)
	}
	if lmo := m.LMO; lmo != nil {
		for i, c := range lmo.C {
			met[fmt.Sprintf("lmo.C[%d]", i)] = c
		}
		for i, t := range lmo.T {
			met[fmt.Sprintf("lmo.t[%d]", i)] = t
		}
		if len(lmo.L) > 1 {
			met["lmo.L[0][1]"] = lmo.L[0][1]
			met["lmo.beta[0][1]"] = lmo.Beta[0][1]
		}
	}
	if m.Gather.Valid() {
		met["lmo.M1"], met["lmo.M2"] = float64(m.Gather.M1), float64(m.Gather.M2)
	}
	if lmo5 := m.LMO5; lmo5 != nil {
		for i, c := range lmo5.C() {
			met[fmt.Sprintf("lmo5.C[%d]", i)] = c
		}
		for i, ti := range lmo5.T() {
			met[fmt.Sprintf("lmo5.t[%d]", i)] = ti
		}
	}
}
