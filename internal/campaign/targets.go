package campaign

import (
	"fmt"
	"strings"

	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/textplot"
)

// estimatorIDs lists the supported estimator targets.
var estimatorIDs = []string{"all", "lmo", "lmo5", "hethockney", "hockney", "logp", "plogp"}

func knownEstimator(id string) bool {
	for _, e := range estimatorIDs {
		if e == id {
			return true
		}
	}
	return false
}

// runTaskFn is the task executor; tests substitute it to exercise the
// engine's panic/timeout/cancellation paths without a simulator run.
var runTaskFn = runTask

// runTask executes one grid point in its own simulated universe.
func runTask(g Grid, t Task) Result {
	r := newResult(t)
	switch t.Target.Kind {
	case Experiment:
		runExperiment(g, t, &r)
	case Estimator:
		runEstimator(g, t, &r)
	case Custom:
		// Unreachable through Run (validate requires a RunTask hook,
		// which replaces this executor), but fail loudly for direct use.
		r.Err = fmt.Sprintf("campaign: custom target %q has no executor", t.Target.ID)
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
	if g.ObsReps > 0 {
		cfg.ObsReps = g.ObsReps
	}
	return cfg
}

func (g Grid) mpiConfig(t Task) mpi.Config {
	return mpi.Config{Cluster: t.Cluster.Cluster, Profile: t.Profile, Seed: t.Seed}
}

// runExperiment runs a figure/table reproduction and derives
// prediction-error metrics: for every prediction series, the mean
// absolute relative error against the observed series.
func runExperiment(g Grid, t Task, r *Result) {
	runner := experiment.Lookup(t.Target.ID)
	rep, err := runner.Run(g.experimentConfig(t))
	if err != nil {
		r.Err = err.Error()
		return
	}
	r.Series = rep.Series
	r.Metrics = experimentMetrics(rep)
}

// experimentMetrics compares each prediction series to the first
// series whose name starts with "observed" (the convention of every
// figure runner). Reports without series (tree/table reproductions)
// yield no metrics.
func experimentMetrics(rep *experiment.Report) map[string]float64 {
	var obs []float64
	for _, s := range rep.Series {
		if strings.HasPrefix(s.Name, "observed") {
			obs = ys(s.Points)
			break
		}
	}
	if obs == nil {
		return nil
	}
	m := map[string]float64{}
	for _, s := range rep.Series {
		if strings.HasPrefix(s.Name, "observed") || len(s.Points) != len(obs) {
			continue
		}
		m["relerr."+s.Name] = meanAbsRelError(obs, ys(s.Points))
	}
	return m
}

func ys(pts []textplot.Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Y
	}
	return out
}

// runEstimator estimates the requested model family and records both
// the models (for the registry) and flattened parameter metrics (for
// seed aggregation).
func runEstimator(g Grid, t Task, r *Result) {
	cfg := g.mpiConfig(t)
	opt := g.Est
	met := map[string]float64{}
	switch t.Target.ID {
	case "all":
		ms, err := experiment.EstimateAll(g.experimentConfig(t))
		if err != nil {
			r.Err = err.Error()
			return
		}
		r.Models = models.NewModelFile(ms.Hom, ms.Het, ms.LogP, ms.LogGP, ms.PLogP, ms.LMO)
		// Keyed map-to-map transform; per-family entries are independent.
		//lmovet:commutative
		for fam, c := range ms.EstCosts {
			met["cost_s."+fam] = c.Seconds()
		}
		lmoMetrics(met, ms.LMO)
		met["hockney.alpha"], met["hockney.beta"] = ms.Hom.Alpha, ms.Hom.Beta
	case "lmo":
		lmo, rep, err := estimate.LMOX(cfg, opt)
		if err != nil {
			r.Err = err.Error()
			return
		}
		irr, irrRep, err := estimate.DetectGatherIrregularity(
			cfg, g.Root, estimate.DefaultScanSizes(), 20, opt)
		if err != nil {
			r.Err = err.Error()
			return
		}
		lmo.Gather = irr
		r.Models = models.NewModelFile(nil, nil, nil, nil, nil, lmo)
		lmoMetrics(met, lmo)
		met["cost_s"] = (rep.Cost + irrRep.Cost).Seconds()
		met["experiments"] = float64(rep.Experiments + irrRep.Experiments)
		met["repetitions"] = float64(rep.Repetitions + irrRep.Repetitions)
	case "lmo5":
		lmo5, rep, err := estimate.LMOOriginal(cfg, opt)
		if err != nil {
			r.Err = err.Error()
			return
		}
		for i, c := range lmo5.C() {
			met[fmt.Sprintf("lmo5.C[%d]", i)] = c
		}
		for i, ti := range lmo5.T() {
			met[fmt.Sprintf("lmo5.t[%d]", i)] = ti
		}
		met["cost_s"] = rep.Cost.Seconds()
	case "hethockney":
		het, rep, err := estimate.HetHockney(cfg, opt)
		if err != nil {
			r.Err = err.Error()
			return
		}
		r.Models = models.NewModelFile(het.Averaged(), het, nil, nil, nil, nil)
		hom := het.Averaged()
		met["hockney.alpha"], met["hockney.beta"] = hom.Alpha, hom.Beta
		met["hethockney.alpha[0][1]"] = het.Alpha[0][1]
		met["hethockney.beta[0][1]"] = het.Beta[0][1]
		met["cost_s"] = rep.Cost.Seconds()
		met["experiments"] = float64(rep.Experiments)
		met["repetitions"] = float64(rep.Repetitions)
	case "hockney":
		hom, rep, err := estimate.HomHockney(cfg, opt, nil)
		if err != nil {
			r.Err = err.Error()
			return
		}
		r.Models = models.NewModelFile(hom, nil, nil, nil, nil, nil)
		met["hockney.alpha"], met["hockney.beta"] = hom.Alpha, hom.Beta
		met["cost_s"] = rep.Cost.Seconds()
	case "logp":
		logp, loggp, rep, err := estimate.LogPLogGP(cfg, opt)
		if err != nil {
			r.Err = err.Error()
			return
		}
		r.Models = models.NewModelFile(nil, nil, logp, loggp, nil, nil)
		met["logp.L"], met["logp.o"], met["logp.g"] = logp.L, logp.O, logp.G
		met["loggp.G"] = loggp.BigG
		met["cost_s"] = rep.Cost.Seconds()
	case "plogp":
		plogp, rep, err := estimate.PLogP(cfg, opt)
		if err != nil {
			r.Err = err.Error()
			return
		}
		r.Models = models.NewModelFile(nil, nil, nil, nil, plogp, nil)
		met["plogp.L"] = plogp.L
		met["plogp.g(1)"] = plogp.Gap(1)
		met["plogp.g(64K)"] = plogp.Gap(64 << 10)
		met["cost_s"] = rep.Cost.Seconds()
	}
	r.Metrics = met
	if r.Models != nil {
		r.Models.Meta = &models.Meta{
			Cluster: t.Cluster.Name,
			Nodes:   t.Cluster.Cluster.N(),
			Profile: t.Profile.Name,
			Seed:    t.Seed,
		}
	}
}

// lmoMetrics flattens the extended LMO parameters: per-node constants
// and per-byte costs, plus a representative link.
func lmoMetrics(met map[string]float64, lmo *models.LMOX) {
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
	if lmo.Gather.Valid() {
		met["lmo.M1"] = float64(lmo.Gather.M1)
		met["lmo.M2"] = float64(lmo.Gather.M2)
	}
}

// meanAbsRelError is the figures' accuracy metric: mean |pred-obs|/obs.
func meanAbsRelError(obs, pred []float64) float64 {
	if len(obs) == 0 {
		return 0
	}
	s := 0.0
	for i := range obs {
		if obs[i] != 0 {
			d := (pred[i] - obs[i]) / obs[i]
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s / float64(len(obs))
}
