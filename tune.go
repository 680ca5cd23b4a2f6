package commperf

import (
	"context"
	"fmt"

	"repro/internal/autotune"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/tuned"
)

// Auto-tuning: model-guided collective selection. System.Tune explores
// a candidate space of (algorithm × tree degree × segment size) shapes
// per collective and message-size range, prunes it with cheap
// closed-form predictions from an estimated model, validates the
// survivors in the event simulator, and emits a versioned decision
// table a Tuner executes from.
type (
	// TunedTable is a versioned collective decision table: per-op,
	// per-message-size-range rules naming the winning shape.
	TunedTable = tuned.Table
	// TunedRule is one decision: op + byte range → algorithm shape.
	TunedRule = tuned.Rule
	// TunedOp names a tunable collective ("scatter", "gather").
	TunedOp = tuned.Op
	// TuneCandidate is one algorithm shape in the tuner's search
	// space: algorithm, k-ary tree degree and segment size.
	TuneCandidate = optimize.Shape
	// TuneCell reports one (op, message size) tuning cell: the pruned
	// candidate ranking, the simulated winner and whether the
	// closed-form top pick agreed with the simulator.
	TuneCell = autotune.Cell
)

// The tunable collectives.
const (
	// OpScatter tunes the scatter collective.
	OpScatter = tuned.OpScatter
	// OpGather tunes the gather collective.
	OpGather = tuned.OpGather
)

// TunedTableVersion is the decision-table format this build reads and
// writes.
const TunedTableVersion = tuned.TableVersion

var (
	// NewTunerFromTable builds a Tuner for an n-rank job that executes
	// a decision table at the root it was tuned for; sizes no rule
	// covers run linear.
	NewTunerFromTable = tuned.NewFromTable
	// UnmarshalTunedTable reconstructs and validates a decision table
	// from its JSON envelope, rejecting unsupported versions.
	UnmarshalTunedTable = tuned.UnmarshalTable
	// DefaultTuneCandidates enumerates the tuner's default search
	// space for a model (linear, binomial, binary, chain × segment
	// sizes, plus k-ary tree degrees).
	DefaultTuneCandidates = autotune.DefaultCandidates
	// DefaultTuneSizes is the default message-size sweep, concentrated
	// around the irregularity thresholds.
	DefaultTuneSizes = autotune.TuneSizes
)

// tuneConfig is the resolved state of a chain of TuneOptions.
type tuneConfig struct {
	opt   autotune.Options
	model models.CollectivePredictor
	obs   *obs.Trace
}

// TuneOption configures System.Tune. Options apply in call order: a
// later option overrides what an earlier one set.
type TuneOption interface{ applyTune(*tuneConfig) }

type tuneMsgSizesOption []int

func (o tuneMsgSizesOption) applyTune(c *tuneConfig) { c.opt.MsgSizes = []int(o) }

// WithTuneMsgSizes sets the probed message sizes; each becomes one
// decision-table range [size_i, size_i+1). Default: DefaultTuneSizes.
func WithTuneMsgSizes(sizes ...int) TuneOption { return tuneMsgSizesOption(sizes) }

type topKOption int

func (o topKOption) applyTune(c *tuneConfig) { c.opt.TopK = int(o) }

// WithTopK keeps the k best closed-form candidates per cell, each a
// different shape, for simulator validation (default 3). Larger k
// trades tuning time for robustness against model mispredictions.
func WithTopK(k int) TuneOption { return topKOption(k) }

type candidatesOption []optimize.Shape

func (o candidatesOption) applyTune(c *tuneConfig) { c.opt.Candidates = []optimize.Shape(o) }

// WithCandidates replaces the tuner's search space.
func WithCandidates(cands ...TuneCandidate) TuneOption { return candidatesOption(cands) }

type tuneOpsOption []tuned.Op

func (o tuneOpsOption) applyTune(c *tuneConfig) { c.opt.Ops = []tuned.Op(o) }

// WithTuneOps restricts tuning to the given collectives (default
// scatter and gather).
func WithTuneOps(ops ...TunedOp) TuneOption { return tuneOpsOption(ops) }

type tuneModelOption struct{ m models.CollectivePredictor }

func (o tuneModelOption) applyTune(c *tuneConfig) { c.model = o.m }

// WithTuneModel prunes with an already-estimated model instead of
// estimating the LMO model first. Any CollectivePredictor works; an
// *LMO with gather irregularity attached gives the sharpest prune.
func WithTuneModel(m CollectivePredictor) TuneOption { return tuneModelOption{m} }

// Tuning bundles what System.Tune produced.
type Tuning struct {
	// Table is the versioned decision table; feed it to
	// NewTunerFromTable or serialize it with Marshal.
	Table *TunedTable
	// Cells are the per-(op, size) outcomes with full rankings.
	Cells []TuneCell
	// Agreement is the fraction of cells where the closed-form top
	// pick matched (within 10%) the simulated winner.
	Agreement float64
	// Candidates and Simulated count the shapes considered and the
	// simulator validations spent.
	Candidates int
	Simulated  int
	// Report is the cost of the internal model estimation (zero when
	// WithTuneModel supplied one).
	Report EstimateReport
	// Trace is the observer passed via WithObserver (nil otherwise);
	// after a successful tune it carries the span trace of the winning
	// shape's replay.
	Trace *Trace
}

// Tune auto-tunes the system's collectives: estimate the LMO model
// (unless WithTuneModel supplies one), prune the candidate space with
// its closed-form predictions, validate the top-k survivors per cell
// in the event simulator, and return the resulting decision table.
//
//	tn, err := sys.Tune(commperf.WithTuneMsgSizes(4<<10, 32<<10, 64<<10))
//	...
//	tuner, err := commperf.NewTunerFromTable(tn.Table, sys.Cluster().N())
//	sys.Run(func(r *commperf.Rank) { tuner.Gather(r, 0, block) })
//
// With WithObserver the winning shape of the largest tuned cell is
// replayed once under the trace, so the tuned collective's span
// structure is inspectable.
func (s *System) Tune(opts ...TuneOption) (*Tuning, error) {
	var c tuneConfig
	for _, o := range opts {
		o.applyTune(&c)
	}
	tn := &Tuning{Trace: c.obs}
	model := c.model
	if model == nil {
		est, err := s.Estimate(ModelLMO)
		tn.Report = est.Report
		if err != nil {
			return tn, fmt.Errorf("commperf: tune: estimating the pruning model: %w", err)
		}
		model = est.LMO
	}
	cfg := experiment.Config{
		Cluster: s.cfg.Cluster, Profile: s.cfg.Profile,
		Seed: s.cfg.Seed, Faults: s.cfg.Faults,
	}
	res, err := autotune.Tune(context.Background(), cfg, model, c.opt)
	if err != nil {
		return tn, err
	}
	tn.Table = res.Table
	tn.Cells = res.Cells
	tn.Agreement = res.Agreement
	tn.Candidates = res.Candidates
	tn.Simulated = res.Simulated
	if c.obs != nil {
		if err := s.replayWinner(res.Table, c.obs); err != nil {
			return tn, err
		}
	}
	return tn, nil
}

// replayWinner times the decision table's last rule (the largest tuned
// range; gather preferred) once more through the observation procedure
// the tuner validated it with, one repetition with the observer
// attached.
func (s *System) replayWinner(tbl *tuned.Table, tr *obs.Trace) error {
	var rule *tuned.Rule
	for i := range tbl.Rules {
		r := &tbl.Rules[i]
		if rule == nil || r.Op == tuned.OpGather {
			rule = r
		}
	}
	if rule == nil {
		return nil
	}
	shape, err := rule.Shape()
	if err != nil {
		return err
	}
	coll, err := models.ParseCollective(string(rule.Op))
	if err != nil {
		return err
	}
	m := rule.MinBytes
	if m == 0 {
		m = 1 << 10
	}
	p := experiment.Config{Root: tbl.Root, ObsReps: 1}.Probe()
	_, err = s.Run(func(r *Rank) { p.Measure(r, mpib.MaxTiming, coll, shape, m) }, WithObserver(tr))
	return err
}
