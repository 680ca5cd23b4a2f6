// Package experiment reproduces the paper's evaluation: one runner per
// figure and table, producing named observation/prediction series and
// text tables. The runners estimate the models from communication
// experiments (never from the simulator's ground truth), observe the
// collectives on the simulated cluster, and lay both side by side,
// exactly as the paper's §V plots do.
package experiment

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/optimize"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// Config parameterizes a reproduction run.
type Config struct {
	Cluster  *cluster.Cluster    // the machine (default: Table I's 16 nodes)
	Profile  *cluster.TCPProfile // MPI implementation profile (default: LAM)
	Seed     int64               // TCP randomness seed
	Root     int                 // collective root
	Sizes    []int               // message-size sweep for the figures
	ObsReps  int                 // repetitions per observation point (see Probe)
	Est      estimate.Options    // estimation options (parallel schedules by default)
	ScanReps int                 // repetitions per size in the irregularity scan
	Faults   *faults.Plan        // fault plan injected into every run (nil = none)

	estimations *memo // the run's memo, shared by the copies of one Default()
}

// Default returns the paper's setting: the 16-node heterogeneous
// cluster of Table I under LAM 7.1.3, with a memo of its own.
func Default() Config {
	return Config{
		Cluster:     cluster.Table1(),
		Profile:     cluster.LAM(),
		Seed:        1,
		Root:        0,
		Sizes:       DefaultSizes(),
		Est:         estimate.Options{Parallel: true},
		ScanReps:    20,
		estimations: new(memo),
	}
}

// DefaultSizes is the figures' message-size sweep: 1 KB – 200 KB.
func DefaultSizes() []int {
	return []int{
		1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 24 << 10, 32 << 10,
		48 << 10, 64 << 10, 80 << 10, 96 << 10, 128 << 10, 160 << 10, 200 << 10,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Cluster == nil {
		c.Cluster = cluster.Table1()
	}
	if c.Profile == nil {
		c.Profile = cluster.LAM()
	}
	if len(c.Sizes) == 0 {
		c.Sizes = DefaultSizes()
	}
	if c.ScanReps == 0 {
		c.ScanReps = 20
	}
	if c.estimations == nil {
		c.estimations = new(memo)
	}
	return c
}

// memo is one run's estimations, one entry per kind and platform. The
// runners share its models and only read them.
type memo struct {
	mu      sync.Mutex
	entries []*memoEntry
}

type memoEntry struct {
	what string
	mpi  mpi.Config
	opt  estimate.Options
	once sync.Once
	val  any
	rep  estimate.Report
	err  error
}

// shared returns est's estimation on cfg's platform with cfg.Est from
// cfg's memo, keyed by what (its error's prefix) and by the platform
// compared by value: cluster, profile, seed and fault plan deeply, the
// options with ==. The first caller runs est; the others wait for it
// and share its result, error included.
func shared[T any](cfg Config, what string, est func(mpi.Config, estimate.Options) (T, estimate.Report, error)) (T, estimate.Report, error) {
	m, mc := cfg.estimations, cfg.MPIConfig()
	m.mu.Lock()
	i := slices.IndexFunc(m.entries, func(e *memoEntry) bool {
		return e.what == what && e.opt == cfg.Est && reflect.DeepEqual(e.mpi, mc)
	})
	if i < 0 {
		i = len(m.entries)
		m.entries = append(m.entries, &memoEntry{what: what, mpi: mc, opt: cfg.Est})
	}
	e := m.entries[i]
	m.mu.Unlock()
	e.once.Do(func() {
		var v T
		if v, e.rep, e.err = est(mc, cfg.Est); e.err != nil {
			e.err = fmt.Errorf("%s: %w", what, e.err)
		}
		e.val = v
	})
	return e.val.(T), e.rep, e.err
}

// scan is the §III gather scan on cfg's platform from cfg.Root at
// cfg.ScanReps repetitions per size, from cfg's memo.
func scan(cfg Config) (models.GatherEmpirical, estimate.Report, error) {
	return shared(cfg, fmt.Sprintf("irregularity detection from %d at %d repetitions", cfg.Root, cfg.ScanReps),
		func(mc mpi.Config, o estimate.Options) (models.GatherEmpirical, estimate.Report, error) {
			return estimate.DetectGatherIrregularity(mc, cfg.Root, estimate.DefaultScanSizes(), cfg.ScanReps, o)
		})
}

// MPIConfig returns the simulator configuration of one run: the
// cluster, profile, seed and fault plan.
func (c Config) MPIConfig() mpi.Config {
	return mpi.Config{Cluster: c.Cluster, Profile: c.Profile, Seed: c.Seed, Faults: c.Faults}
}

// TableBlock is a captioned text table inside a report.
type TableBlock struct {
	Caption string
	Rows    [][]string
}

// Report is the result of one experiment runner.
type Report struct {
	ID     string // "fig1" … "fig7", "table1", …
	Title  string
	XLabel string
	YLabel string
	Series []textplot.Series
	Tables []TableBlock
	Notes  []string
}

// RelErrors returns each prediction series' mean |rel.err| against the
// report's observation, keyed by series name, or nil without one. The
// observation is the first series named "observed…", every figure
// runner's convention; other observed series and lengths are skipped.
func (r *Report) RelErrors() map[string]float64 {
	i := slices.IndexFunc(r.Series, func(s textplot.Series) bool { return strings.HasPrefix(s.Name, "observed") })
	if i < 0 {
		return nil
	}
	obs, errs := ys(r.Series[i].Points), map[string]float64{}
	for _, s := range r.Series {
		if !strings.HasPrefix(s.Name, "observed") && len(s.Points) == len(obs) {
			errs[s.Name] = meanAbsRelError(obs, ys(s.Points))
		}
	}
	return errs
}

func ys(pts []textplot.Point) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Y
	}
	return out
}

// EstimateAll returns the six servable models with the configured
// schedule: the estimation table's family "all", whose LMO model
// carries the gather scan from cfg.Root at cfg.ScanReps repetitions,
// assembled from cfg's memo. The scan attaches to a copy of LMOX.
func EstimateAll(cfg Config) (*estimate.Models, error) {
	cfg = cfg.withDefaults()
	het, hetRep, errHet := shared(cfg, "het-Hockney estimation", estimate.HetHockney)
	lp, lpRep, errLP := shared(cfg, "LogP/LogGP estimation", func(mc mpi.Config, o estimate.Options) (s models.Set, r estimate.Report, err error) {
		s.LogP, s.LogGP, r, err = estimate.LogPLogGP(mc, o)
		return s, r, err
	})
	plogp, plogpRep, errPLogP := shared(cfg, "PLogP estimation", estimate.PLogP)
	lmo, lmoRep, errLMO := shared(cfg, "LMO estimation", estimate.LMOX)
	irr, scanRep, errScan := scan(cfg)
	if err := cmp.Or(errHet, errLP, errPLogP, errLMO, errScan); err != nil {
		return nil, err
	}
	withScan := *lmo
	withScan.Gather = irr
	return &estimate.Models{
		Set:   models.Set{Hom: het.Averaged(), Het: het, LogP: lp.LogP, LogGP: lp.LogGP, PLogP: plogp, LMO: &withScan},
		Costs: map[string]time.Duration{"hockney": hetRep.Cost, "logp": lpRep.Cost, "plogp": plogpRep.Cost, "lmo": lmoRep.Cost, "irregularity-scan": scanRep.Cost},
	}, nil
}

// Observation is one observed size sweep.
type Observation struct {
	Sizes  []int
	Mean   []float64    // mean over repetitions (seconds)
	Max    []float64    // worst repetition
	Faults faults.Stats // what the fault injector did during the sweep
}

// Observe times coll over alg's tree at every size of cfg.Sizes, in one
// job on cfg's platform, through cfg's Probe. Each point is the mean
// and the worst of its repetitions, each the makespan the paper's plots
// show.
func Observe(cfg Config, coll models.Collective, alg mpi.Alg) (Observation, error) {
	return observe(cfg, coll, func(int) optimize.Shape { return optimize.Shape{Alg: alg} })
}

// observe is Observe over the shape shapeAt(m) at each size m, which
// may change with the size.
func observe(cfg Config, coll models.Collective, shapeAt func(m int) optimize.Shape) (Observation, error) {
	cfg = cfg.withDefaults()
	p := cfg.Probe()
	obs := Observation{Sizes: cfg.Sizes, Mean: make([]float64, len(cfg.Sizes)), Max: make([]float64, len(cfg.Sizes))}
	res, err := mpi.Run(cfg.MPIConfig(), func(r *mpi.Rank) {
		for i, m := range cfg.Sizes {
			meas := p.Measure(r, mpib.MaxTiming, coll, shapeAt(m), m)
			if r.Rank() == 0 {
				obs.Mean[i], obs.Max[i] = meas.Mean, stats.Max(meas.Samples)
			}
		}
	})
	obs.Faults = res.Faults
	return obs, err
}

// Probe is a configuration's observation procedure: every figure, study
// and tuner validation times its collective through Measure, under the
// one repetition rule that Config.Probe sets. Its ops are invariant
// (mpib.Invariant), so on a platform without faults a repetition that
// mpib.Measure certifies is recorded for the rest of the point instead
// of simulated again, with the same samples.
type Probe struct {
	root int
	opts mpib.Options
}

// Probe returns c's observation procedure. Its rule: ObsReps
// synchronized repetitions, 10 when ObsReps is not positive, rejecting
// samples beyond Est.Mpib.OutlierMAD scaled MADs when that is set. The
// collectives run from c.Root.
func (c Config) Probe() Probe {
	reps := c.ObsReps
	if reps <= 0 {
		reps = 10
	}
	return Probe{root: c.Root, opts: mpib.Invariant(mpib.Options{MinReps: reps, MaxReps: reps, OutlierMAD: c.Est.Mpib.OutlierMAD})}
}

// Measure times coll over shape s with m-byte blocks from the probe's
// root: one mpib.Measure of the rule's repetitions, each sample taken
// by timing. Every rank of a running job calls it at the same point.
// Bcast and reduce run mpi's binomial trees, whatever s says. Every
// block is the read-only zero payload, since the simulator reads only
// lengths.
func (p Probe) Measure(r *mpi.Rank, timing mpib.Timing, coll models.Collective, s optimize.Shape, m int) mpib.Measurement {
	// The operation is built here, beside the mpib.Measure call that
	// takes it, so it stays on the stack.
	root, block := p.root, mpi.ZeroPayload(m)
	var run func()
	switch coll {
	case models.CollScatter:
		var blocks [][]byte
		if r.Rank() == root {
			blocks = make([][]byte, r.Size())
			for i := range blocks {
				blocks[i] = block
			}
		}
		run = func() { r.ScatterShape(s.Alg, s.Degree, s.Segment, root, m, blocks) }
	case models.CollGather:
		run = func() { r.GatherShape(s.Alg, s.Degree, s.Segment, root, block) }
	case models.CollBcast:
		run = func() { r.Bcast(root, block) }
	case models.CollReduce:
		run = func() { r.Reduce(root, block, keepFirst) }
	default:
		panic(fmt.Sprintf("experiment: cannot observe %v", coll))
	}
	return mpib.Measure(r, root, timing, p.opts, run)
}

// keepFirst is the observed reduce's operation; nothing reads its
// result.
func keepFirst(a, _ []byte) []byte { return a }

// series builds a textplot series from a size sweep and y values.
func series(name string, sizes []int, ys []float64) textplot.Series {
	s := textplot.Series{Name: name}
	for i, m := range sizes {
		s.Points = append(s.Points, textplot.Point{X: float64(m), Y: ys[i]})
	}
	return s
}

// predict sweeps a prediction function over sizes.
func predict(sizes []int, f func(m int) float64) []float64 {
	out := make([]float64, len(sizes))
	for i, m := range sizes {
		out[i] = f(m)
	}
	return out
}

// curve returns p's prediction of the coll collective over alg's tree,
// from root on n ranks, as a function of the block size. The runners
// query models estimated on the platform they observe, so an error is
// a programming fault and panics.
func curve(p models.CollectivePredictor, coll models.Collective, alg mpi.Alg, root, n int) func(m int) float64 {
	return func(m int) float64 {
		t, err := p.Predict(models.Query{Coll: coll, Alg: alg, Root: root, N: n, M: m})
		if err != nil {
			panic(err)
		}
		return t
	}
}

// meanAbsRelError compares a prediction sweep to an observation sweep.
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
