package estimate

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/models"
	"repro/internal/mpi"
)

// Models is one model family's estimation: its servable models, the
// five-parameter LMO of family lmo5 (which no model file carries), and
// the virtual time each procedure took, by label: "hockney" (either
// Hockney series), "logp", "plogp", "lmo", "lmo5" or
// "irregularity-scan".
type Models struct {
	models.Set
	LMO5  *models.LMO
	Costs map[string]time.Duration
}

// procedure is one estimation step: the label of its cost, the prefix
// of its errors, and the run that stores what it estimated into m.
type procedure struct {
	name, what string
	run        func(c call, m *Models) (Report, error)
}

// call holds a Family call's arguments; root and scanReps configure
// LMO's gather scan.
type call struct {
	cfg            mpi.Config
	root, scanReps int
	opt            Options
}

var (
	procHet = procedure{"hockney", "het-Hockney estimation", func(c call, m *Models) (r Report, err error) {
		m.Het, r, err = HetHockney(c.cfg, c.opt)
		return r, err
	}}
	// procHetHom also yields the homogeneous Hockney model as the
	// pairwise average, the figures' Hockney.
	procHetHom = procedure{procHet.name, procHet.what, func(c call, m *Models) (r Report, err error) {
		if r, err = procHet.run(c, m); err == nil {
			m.Hom = m.Het.Averaged()
		}
		return r, err
	}}
	procHom = procedure{"hockney", "Hockney estimation", func(c call, m *Models) (r Report, err error) {
		m.Hom, r, err = HomHockney(c.cfg, c.opt)
		return r, err
	}}
	procLogP = procedure{"logp", "LogP/LogGP estimation", func(c call, m *Models) (r Report, err error) {
		m.LogP, m.LogGP, r, err = LogPLogGP(c.cfg, c.opt)
		return r, err
	}}
	procPLogP = procedure{"plogp", "PLogP estimation", func(c call, m *Models) (r Report, err error) {
		m.PLogP, r, err = PLogP(c.cfg, c.opt)
		return r, err
	}}
	procLMO = procedure{"lmo", "LMO estimation", func(c call, m *Models) (r Report, err error) {
		m.LMO, r, err = LMOX(c.cfg, c.opt)
		return r, err
	}}
	// procScan attaches the §III gather scan's M1/M2 to the LMO model
	// procLMO estimated before it.
	procScan = procedure{"irregularity-scan", "irregularity detection", func(c call, m *Models) (r Report, err error) {
		m.LMO.Gather, r, err = DetectGatherIrregularity(c.cfg, c.root, DefaultScanSizes(), c.scanReps, c.opt)
		return r, err
	}}
	procLMO5 = procedure{"lmo5", "five-parameter LMO estimation", func(c call, m *Models) (r Report, err error) {
		if _, r, err = LMOX(c.cfg, c.opt); err == nil {
			m.LMO5, err = LMOOriginal(r)
		}
		return r, err
	}}
)

// families is the table of estimable model families. A servable
// family's models all fit models.Set, so a model file carries them.
var families = []struct {
	name     string
	servable bool
	procs    []procedure
}{
	{"all", true, []procedure{procHetHom, procLogP, procPLogP, procLMO, procScan}},
	{"lmo", true, []procedure{procLMO, procScan}},
	{"lmo5", false, []procedure{procLMO5}},
	{"hethockney", true, []procedure{procHet}},
	{"hockney", true, []procedure{procHom}},
	{"logp", true, []procedure{procLogP}},
	{"plogp", true, []procedure{procPLogP}},
}

// Families returns the name of every estimable model family in table
// order: "all" (the six servable models), then one per model. With
// servable set it keeps the families whose models a model file
// carries: all but the lmo5 ablation baseline.
func Families(servable bool) []string {
	var out []string
	for _, f := range families {
		if f.servable || !servable {
			out = append(out, f.name)
		}
	}
	return out
}

// Family estimates the named model family on cfg with options opt: the
// paper's §IV procedure for each model, with LMO's §III gather scan
// from root at scanReps repetitions per size. It returns exactly the
// family's models, each procedure's cost, and the report summed over
// the procedures. On error the models are nil and the report holds the
// work done until then, the failing procedure's included.
func Family(cfg mpi.Config, name string, root, scanReps int, opt Options) (*Models, Report, error) {
	for _, f := range families {
		if f.name != name {
			continue
		}
		m, sum := &Models{Costs: map[string]time.Duration{}}, Report{}
		for _, p := range f.procs {
			r, err := p.run(call{cfg, root, scanReps, opt}, m)
			sum.add(r)
			if err != nil {
				return nil, sum, fmt.Errorf("%s: %w", p.what, err)
			}
			m.Costs[p.name] = r.Cost
		}
		return m, sum, nil
	}
	return nil, Report{}, fmt.Errorf("estimate: unknown model family %q (%s)", name, strings.Join(Families(false), ", "))
}

// add accumulates another procedure's report into r. Only LMOX
// computes per-processor Confidence and keeps triplet records, so r
// takes the ones reported.
func (r *Report) add(o Report) {
	r.Cost += o.Cost
	r.Experiments += o.Experiments
	r.Repetitions += o.Repetitions
	r.Retries += o.Retries
	r.NonConverged += o.NonConverged
	r.Dropped = append(r.Dropped, o.Dropped...)
	if o.Confidence != nil {
		r.Confidence, r.triplets = o.Confidence, o.triplets
	}
}
