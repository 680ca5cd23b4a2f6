package commperf

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/obs"
)

// ModelKind names a model family the unified Estimate entry point can
// estimate.
type ModelKind int

// The estimable model families.
const (
	// ModelLMO is the paper's extended six-parameter LMO model, with
	// the empirical gather irregularity attached.
	ModelLMO ModelKind = iota
	// ModelLMOOriginal is the five-parameter LMO ablation baseline.
	ModelLMOOriginal
	// ModelHetHockney is the per-pair heterogeneous Hockney model.
	ModelHetHockney
	// ModelHockney is the homogeneous Hockney model (series method).
	ModelHockney
	// ModelLogP estimates the LogP and LogGP models together (they
	// share their experiments).
	ModelLogP
	// ModelPLogP is the parameterized LogP model with adaptive sizes.
	ModelPLogP
)

// ModelKinds lists every estimable model family.
func ModelKinds() []ModelKind {
	return []ModelKind{ModelLMO, ModelLMOOriginal, ModelHetHockney, ModelHockney, ModelLogP, ModelPLogP}
}

// modelKindNames names each model kind by its family in the estimation
// table.
var modelKindNames = [...]string{
	ModelLMO: "lmo", ModelLMOOriginal: "lmo5", ModelHetHockney: "hethockney",
	ModelHockney: "hockney", ModelLogP: "logp", ModelPLogP: "plogp",
}

// String names the model kind: its family in the estimation table.
func (k ModelKind) String() string {
	if k >= 0 && int(k) < len(modelKindNames) {
		return modelKindNames[k]
	}
	return fmt.Sprintf("ModelKind(%d)", int(k))
}

// Schedule selects how an estimation's experiments are scheduled.
type Schedule int

const (
	// ScheduleParallel runs non-overlapping experiments of one round
	// concurrently — the paper's estimation-time optimization and the
	// default.
	ScheduleParallel Schedule = iota
	// ScheduleSerial runs one experiment at a time.
	ScheduleSerial
)

// String names the schedule.
func (s Schedule) String() string {
	if s == ScheduleSerial {
		return "serial"
	}
	return "parallel"
}

// estimateConfig is the resolved state of a chain of EstimateOptions.
type estimateConfig struct {
	opt     EstimateOptions
	grouped bool // WithLogicalGroups (ModelLMO only)
	baseSet int  // WithEstimateOptions applications (at most one allowed)
	err     error
}

// measureConfig is the resolved state of a chain of MeasureOptions.
type measureConfig struct {
	opt MeasureOptions
}

// runConfig is the resolved state of a chain of RunOptions.
type runConfig struct {
	obs *obs.Trace
}

// EstimateOption configures System.Estimate and
// System.DetectGatherIrregularity. Options apply in call order: a later
// option overrides what an earlier one set.
type EstimateOption interface{ applyEstimate(*estimateConfig) }

// MeasureOption configures Measure and MeasureMakespan.
type MeasureOption interface{ applyMeasure(*measureConfig) }

// RunOption configures System.Run.
type RunOption interface{ applyRun(*runConfig) }

// SamplingOption configures the adaptive repetition loop of both
// estimations and measurements.
type SamplingOption interface {
	EstimateOption
	MeasureOption
}

// InstrumentOption attaches observability to estimations, plain runs
// and tuning runs.
type InstrumentOption interface {
	EstimateOption
	RunOption
	TuneOption
}

type repsOption struct{ min, max int }

func (o repsOption) applyEstimate(c *estimateConfig) {
	c.opt.Mpib.MinReps, c.opt.Mpib.MaxReps = o.min, o.max
}
func (o repsOption) applyMeasure(c *measureConfig) {
	c.opt.MinReps, c.opt.MaxReps = o.min, o.max
}

// WithReps bounds the adaptive repetition loop: at least min and at
// most max repetitions per experiment (min == max pins the count).
func WithReps(min, max int) SamplingOption { return repsOption{min, max} }

type confidenceOption struct{ level, relErr float64 }

func (o confidenceOption) applyEstimate(c *estimateConfig) {
	c.opt.Mpib.Confidence, c.opt.Mpib.RelErr = o.level, o.relErr
}
func (o confidenceOption) applyMeasure(c *measureConfig) {
	c.opt.Confidence, c.opt.RelErr = o.level, o.relErr
}

// WithConfidence sets the stopping rule: repeat until the Student-t
// confidence interval at the given level is within relErr of the mean
// (the paper uses 0.95 and 0.025).
func WithConfidence(level, relErr float64) SamplingOption {
	return confidenceOption{level, relErr}
}

type scheduleOption Schedule

func (o scheduleOption) applyEstimate(c *estimateConfig) {
	c.opt.Parallel = Schedule(o) == ScheduleParallel
}

// WithSchedule selects the serial or parallel experiment schedule.
func WithSchedule(s Schedule) EstimateOption { return scheduleOption(s) }

type msgSizeOption int

func (o msgSizeOption) applyEstimate(c *estimateConfig) { c.opt.MsgSize = int(o) }

// WithMsgSize sets the non-empty message size of the variable-part
// experiments (default 32 KiB; pick a size outside the platform's
// irregularity regions).
func WithMsgSize(bytes int) EstimateOption { return msgSizeOption(bytes) }

type tripletCoverageOption int

func (o tripletCoverageOption) applyEstimate(c *estimateConfig) {
	c.opt.TripletCoverage = int(o)
}

// WithTripletCoverage samples the one-to-two experiments so every
// processor appears in at least k triplets instead of running all
// C(n,3) — the runtime/accuracy trade-off of §IV. Zero runs the full
// set.
func WithTripletCoverage(k int) EstimateOption { return tripletCoverageOption(k) }

type groupedOption struct{}

func (groupedOption) applyEstimate(c *estimateConfig) { c.grouped = true }

// WithLogicalGroups switches ModelLMO estimation to the grouped
// procedure: detect logical homogeneous groups, run one triplet of
// experiments per group and one pair per inter-group link class, then
// expand back to the full per-node model. This collapses the
// O(n²·triplets) experiment count and makes thousand-node clusters
// estimable; the detected partition lands in Estimation.Groups. The
// gather irregularity scan is skipped (Gather stays nil). Valid only
// with ModelLMO. When the cluster has a topology attached the detector
// uses its leaf structure as a hint.
func WithLogicalGroups() EstimateOption { return groupedOption{} }

type observerOption struct{ t *obs.Trace }

func (o observerOption) applyEstimate(c *estimateConfig) { c.opt.Obs = o.t }
func (o observerOption) applyRun(c *runConfig)           { c.obs = o.t }
func (o observerOption) applyTune(c *tuneConfig)         { c.obs = o.t }

// WithObserver attaches a span trace to the simulated universe: the
// engine's event counters, the network's message/RTO/fault spans, the
// per-rank collective spans and (for estimations) the rank-0 phase
// narrative all land in t. One Trace observes one universe — do not
// share a trace between concurrent runs. Nil disables observation.
func WithObserver(t *Trace) InstrumentOption { return observerOption{t} }

type baseEstimateOption EstimateOptions

func (o baseEstimateOption) applyEstimate(c *estimateConfig) {
	c.opt = EstimateOptions(o)
	c.baseSet++
	if c.baseSet > 1 {
		c.err = fmt.Errorf("commperf: WithEstimateOptions given %d times; pass at most one base (merge the structs or use the fine-grained options)", c.baseSet)
	}
}

// WithEstimateOptions replaces the whole option base with a prepared
// EstimateOptions struct (including the default parallel schedule —
// set Parallel yourself). It may appear at most once in an option
// list and should come first: later fine-grained options override its
// fields, while an earlier one would be wiped.
func WithEstimateOptions(o EstimateOptions) EstimateOption { return baseEstimateOption(o) }

type baseMeasureOption MeasureOptions

func (o baseMeasureOption) applyMeasure(c *measureConfig) { c.opt = MeasureOptions(o) }

// WithMeasureOptions replaces the whole measurement option base with a
// prepared MeasureOptions struct. Like WithEstimateOptions it should
// come first in an option list.
func WithMeasureOptions(o MeasureOptions) MeasureOption { return baseMeasureOption(o) }

// Estimation bundles what System.Estimate produced: the typed model of
// the requested kind (exactly the fields matching the kind are non-nil;
// ModelHetHockney's include Hockney, the pairwise average), the cost
// report and the observation trace when one was attached. On error the
// returned Estimation still carries the report accumulated so far (and
// the trace), with the model fields nil.
type Estimation struct {
	Kind ModelKind

	LMO         *LMO         // ModelLMO
	LMOOriginal *LMOOriginal // ModelLMOOriginal
	HetHockney  *HetHockney  // ModelHetHockney
	Hockney     *Hockney     // ModelHockney, ModelHetHockney
	LogP        *LogP        // ModelLogP
	LogGP       *LogGP       // ModelLogP (estimated together with LogP)
	PLogP       *PLogP       // ModelPLogP

	// Groups is the logical-group partition detected by the grouped
	// LMO estimation (nil unless WithLogicalGroups was used).
	Groups *Grouping

	Report EstimateReport
	Trace  *Trace // the observer passed via WithObserver (nil otherwise)
}

// Predictor returns the estimation's model as a CollectivePredictor,
// or nil when the estimation failed. For ModelLogP it returns the
// LogGP model (the finer of the pair).
func (e *Estimation) Predictor() CollectivePredictor {
	switch e.Kind {
	case ModelLMO:
		if e.LMO != nil {
			return e.LMO
		}
	case ModelLMOOriginal:
		if e.LMOOriginal != nil {
			return e.LMOOriginal
		}
	case ModelHetHockney:
		if e.HetHockney != nil {
			return e.HetHockney
		}
	case ModelHockney:
		if e.Hockney != nil {
			return e.Hockney
		}
	case ModelLogP:
		if e.LogGP != nil {
			return e.LogGP
		}
	case ModelPLogP:
		if e.PLogP != nil {
			return e.PLogP
		}
	}
	return nil
}

// Estimate runs the timing experiments of the requested model family
// on the system and returns the estimated model(s) with the cost
// report, configured by functional options. Each kind is the
// estimation table's family of the same name (ModelKind.String), with
// ModelLMO's gather scan from root 0 at 20 repetitions per size:
//
//	tr := commperf.NewTrace()
//	est, err := sys.Estimate(commperf.ModelLMO,
//	        commperf.WithSchedule(commperf.ScheduleSerial),
//	        commperf.WithObserver(tr))
//	...
//	pred, err := est.Predictor().Predict(commperf.PredictQuery{
//	        Coll: commperf.CollScatter, Alg: commperf.Linear, N: 16, M: 64 << 10})
//
// The returned Estimation is non-nil even on error, carrying the
// report of the work done until the failure.
func (s *System) Estimate(kind ModelKind, opts ...EstimateOption) (*Estimation, error) {
	cfg, err := resolveEstimate(opts)
	est := &Estimation{Kind: kind, Trace: cfg.opt.Obs}
	if err != nil {
		return est, err
	}
	if cfg.grouped {
		if kind != ModelLMO {
			return est, fmt.Errorf("commperf: WithLogicalGroups requires ModelLMO, got %v", kind)
		}
		m, g, rep, err := estimate.LMOGrouped(s.cfg, cfg.opt)
		est.Report = rep
		if err != nil {
			return est, err
		}
		est.LMO, est.Groups = m, g
		return est, nil
	}
	m, rep, err := estimate.Family(nil, s.cfg, kind.String(), 0, 20, cfg.opt)
	est.Report = rep
	if err != nil {
		return est, err
	}
	// The family returns exactly its own models, so every other field
	// stays nil.
	est.LMO, est.LMOOriginal, est.HetHockney, est.Hockney = m.LMO, m.LMO5, m.Het, m.Hom
	est.LogP, est.LogGP, est.PLogP = m.LogP, m.LogGP, m.PLogP
	return est, nil
}

// resolveEstimate applies opts, in call order, over the default base
// (parallel schedule): the one option path of Estimate and
// DetectGatherIrregularity.
func resolveEstimate(opts []EstimateOption) (estimateConfig, error) {
	cfg := estimateConfig{opt: EstimateOptions{Parallel: true}}
	for _, o := range opts {
		o.applyEstimate(&cfg)
	}
	return cfg, cfg.err
}
