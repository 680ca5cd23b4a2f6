package estimate

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/models"
	"repro/internal/mpi"
)

// Models is one model family's estimation: its servable models; the
// five-parameter LMO of family lmo5 and the gather scan's region, which
// no model file carries apart from LMO's own copy of the region; and
// the virtual time each procedure took, by label: "hockney" (either
// Hockney series), "logp", "plogp", "lmo", "lmo5" or "irregularity-scan".
type Models struct {
	models.Set
	LMO5   *models.LMO
	Gather models.GatherEmpirical
	Costs  map[string]time.Duration
}

// procedure is one estimation step: its cost label, its error prefix,
// whether it scans, and the run that returns how to store its models.
type procedure struct {
	name, what string
	scans      bool
	run        func(c call) (store func(m *Models), r Report, err error)
}

// call holds a Family call's arguments.
type call struct {
	memo           *Memo
	cfg            mpi.Config
	root, scanReps int
	opt            Options
}

var (
	// procHet also yields the homogeneous Hockney model as the
	// pairwise average, the figures' Hockney.
	procHet = procedure{"hockney", "het-Hockney estimation", false, func(c call) (func(*Models), Report, error) {
		het, r, err := HetHockney(c.cfg, c.opt)
		return func(m *Models) { m.Het, m.Hom = het, het.Averaged() }, r, err
	}}
	procHom = procedure{"hockney", "Hockney estimation", false, func(c call) (func(*Models), Report, error) {
		hom, r, err := HomHockney(c.cfg, c.opt)
		return func(m *Models) { m.Hom = hom }, r, err
	}}
	procLogP = procedure{"logp", "LogP/LogGP estimation", false, func(c call) (func(*Models), Report, error) {
		logp, loggp, r, err := LogPLogGP(c.cfg, c.opt)
		return func(m *Models) { m.LogP, m.LogGP = logp, loggp }, r, err
	}}
	procPLogP = procedure{"plogp", "PLogP estimation", false, func(c call) (func(*Models), Report, error) {
		plogp, r, err := PLogP(c.cfg, c.opt)
		return func(m *Models) { m.PLogP = plogp }, r, err
	}}
	procLMOX = procedure{"lmo", "LMO estimation", false, func(c call) (func(*Models), Report, error) {
		lmo, r, err := LMOX(c.cfg, c.opt)
		return func(m *Models) { m.LMO = lmo }, r, err
	}}
	// procScan stores the §III gather scan's region in Gather, and in a
	// copy of the shared LMO model that a procedure before it stored.
	procScan = procedure{"irregularity-scan", "irregularity detection", true, func(c call) (func(*Models), Report, error) {
		g, r, err := DetectGatherIrregularity(c.cfg, c.root, DefaultScanSizes(), c.scanReps, c.opt)
		return func(m *Models) {
			m.Gather = g
			if m.LMO != nil {
				lmo := *m.LMO
				lmo.Gather = g
				m.LMO = &lmo
			}
		}, r, err
	}}
	// procLMO5 solves the LMOX run it takes from the call's memo.
	procLMO5 = procedure{"lmo5", "five-parameter LMO estimation", false, func(c call) (func(*Models), Report, error) {
		_, r, err := c.memo.run(procLMOX, c)
		if err != nil {
			return nil, r, err
		}
		lmo5, err := LMOOriginal(r)
		return func(m *Models) { m.LMO5 = lmo5 }, r, err
	}}
)

// families is the table of estimable model families. A servable
// family's models all fit models.Set, so a model file carries them.
var families = []struct {
	name     string
	servable bool
	procs    []procedure
}{
	{"all", true, []procedure{procHet, procLogP, procPLogP, procLMOX, procScan}},
	{"lmo", true, []procedure{procLMOX, procScan}},
	{"lmox", false, []procedure{procLMOX}},
	{"scan", false, []procedure{procScan}},
	{"lmo5", false, []procedure{procLMO5}},
	{"hethockney", true, []procedure{procHet}},
	{"hockney", true, []procedure{procHom}},
	{"logp", true, []procedure{procLogP}},
	{"plogp", true, []procedure{procPLogP}},
}

// Families returns the name of every estimable model family in table
// order: "all" (the six servable models), "lmo" and its parts "lmox"
// (analytic) and "scan" (empirical), then one per model. With servable
// set it keeps the families a model file carries: all but LMO's parts
// and the lmo5 ablation baseline.
func Families(servable bool) []string {
	var out []string
	for _, f := range families {
		if f.servable || !servable {
			out = append(out, f.name)
		}
	}
	return out
}

// Family estimates the named model family on cfg with options opt,
// through memo: the paper's §IV procedure for each model, with LMO's
// §III gather scan from root at scanReps repetitions per size. It
// returns exactly the family's models, each procedure's cost, and the
// report summed over the procedures. On error the models are nil and
// the report holds the work done until then, the failing procedure's
// included.
func Family(memo *Memo, cfg mpi.Config, name string, root, scanReps int, opt Options) (*Models, Report, error) {
	for _, f := range families {
		if f.name != name {
			continue
		}
		c := call{memo, cfg, root, scanReps, opt}
		m, sum := &Models{Costs: map[string]time.Duration{}}, Report{}
		for _, p := range f.procs {
			store, r, err := memo.run(p, c)
			sum.add(r)
			if err != nil {
				return nil, sum, err
			}
			store(m)
			m.Costs[p.name] = r.Cost
		}
		return m, sum, nil
	}
	return nil, Report{}, fmt.Errorf("estimate: unknown model family %q (%s)", name, strings.Join(Families(false), ", "))
}

// Memo shares estimations between Family calls: a procedure runs once
// per key, and every call that needs it shares its result, error
// included, and only reads its models. A nil Memo shares nothing.
type Memo struct {
	mu      sync.Mutex
	entries []*memoEntry
}

// memoEntry is one procedure's run under its key: the error prefix and
// the call, its platform compared by value (cluster, profile, seed and
// fault plan deeply), options with ==, scan fields zero unless it scans.
type memoEntry struct {
	what  string
	key   call
	once  sync.Once
	store func(*Models)
	rep   Report
	err   error
}

// run returns p's run on c from m's entry: the first caller runs p and
// the others share its result, error prefixed. A nil m runs p anew.
func (m *Memo) run(p procedure, c call) (func(*Models), Report, error) {
	k := call{cfg: c.cfg, opt: c.opt}
	if p.scans {
		k.root, k.scanReps = c.root, c.scanReps
	}
	e := &memoEntry{what: p.what, key: k}
	if m != nil {
		m.mu.Lock()
		if i := slices.IndexFunc(m.entries, func(o *memoEntry) bool {
			return o.what == e.what && o.key.opt == k.opt && o.key.root == k.root && o.key.scanReps == k.scanReps && reflect.DeepEqual(o.key.cfg, k.cfg)
		}); i >= 0 {
			e = m.entries[i]
		} else {
			m.entries = append(m.entries, e)
		}
		m.mu.Unlock()
	}
	e.once.Do(func() {
		if e.store, e.rep, e.err = p.run(c); e.err != nil {
			e.err = fmt.Errorf("%s: %w", p.what, e.err)
		}
	})
	return e.store, e.rep, e.err
}

// Estimations counts m's entries by procedure, each under its error
// prefix: how many estimations the calls sharing m ran.
func (m *Memo) Estimations() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int{}
	for _, e := range m.entries {
		out[e.what]++
	}
	return out
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
