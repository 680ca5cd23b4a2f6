// Package commperf is a library for modelling, measuring and
// optimizing the communication performance of message-passing programs
// on switched computational clusters. It reproduces, end to end, the
// system of Lastovetsky, Rychkov and O'Flynn, "Revisiting communication
// performance models for computational clusters" (IPPS 2009):
//
//   - a deterministic discrete-event simulator of a single-switch
//     cluster with heterogeneous processors and TCP-layer
//     irregularities (the stand-in for the paper's 16-node testbed);
//   - an MPI-like SPMD layer with linear and binomial collectives;
//   - the model zoo — Hockney (homogeneous and heterogeneous), LogP,
//     LogGP, PLogP, and the LMO model with its six-parameter extension
//     that fully separates the constant and variable contributions of
//     processors and network;
//   - the estimation procedures (round-trips, one-to-two triplet
//     experiments, saturations, adaptive PLogP sizes; serial and
//     parallel schedules) and the empirical gather-irregularity
//     detection;
//   - model-based optimization: collective-algorithm selection, gather
//     splitting and binomial-tree mapping;
//   - deterministic fault injection (link loss with RTO stalls, link
//     degradation windows, stragglers, node crashes) with
//     outlier-robust measurement and degradation-tolerant estimation;
//   - an experiment harness regenerating every figure and table of the
//     paper's evaluation.
//
// The quickest route: build a System over a cluster description,
// estimate a model from timing experiments, predict, then verify
// against observation.
//
//	sys := commperf.NewSystem(commperf.Table1(), commperf.LAM(), 1)
//	est, err := sys.Estimate(commperf.ModelLMO)
//	...
//	pred, err := est.LMO.Predict(commperf.PredictQuery{
//	        Coll: commperf.CollScatter, Alg: commperf.Linear, N: 16, M: 64 << 10})
package commperf

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/tuned"
)

// Cluster descriptions and TCP profiles.
type (
	// Cluster describes a single-switch machine: nodes and links.
	Cluster = cluster.Cluster
	// NodeSpec is one processor's constant (C) and per-byte (T) cost.
	NodeSpec = cluster.NodeSpec
	// LinkSpec is one link's latency (L) and rate (Beta).
	LinkSpec = cluster.LinkSpec
	// TCPProfile models an MPI implementation's TCP-layer behaviour.
	TCPProfile = cluster.TCPProfile
)

// Models.
type (
	// Hockney is the homogeneous Hockney model (α, β).
	Hockney = models.Hockney
	// HetHockney is the per-pair heterogeneous Hockney model.
	HetHockney = models.HetHockney
	// LogP is the Culler et al. model.
	LogP = models.LogP
	// LogGP adds the gap-per-byte G for long messages.
	LogGP = models.LogGP
	// PLogP is the parameterized LogP model with size-dependent
	// piecewise-linear parameters.
	PLogP = models.PLogP
	// LMO is the paper's extended six-parameter heterogeneous model.
	LMO = models.LMOX
	// LMOOriginal is the five-parameter LMO of the earlier papers,
	// kept as the ablation baseline.
	LMOOriginal = models.LMO
	// GatherEmpirical carries the empirical linear-gather parameters
	// (M1, M2, escalation statistics).
	GatherEmpirical = models.GatherEmpirical
	// CollectivePredictor is the predictor interface: one Alg-keyed
	// Predict entry point plus a capabilities surface. Every model
	// satisfies it.
	CollectivePredictor = models.CollectivePredictor
	// PredictQuery describes one collective prediction: collective,
	// algorithm shape, root, processor count and message size.
	PredictQuery = models.Query
	// PredictorCapabilities declares what a predictor can answer.
	PredictorCapabilities = models.Capabilities
	// Collective names a collective operation in a PredictQuery.
	Collective = models.Collective
	// ModelFile is the JSON representation of estimated models.
	ModelFile = models.ModelFile
	// ModelMeta records the provenance of a model file (cluster,
	// profile, seed, estimating tool).
	ModelMeta = models.Meta
)

// The collectives a PredictQuery can name.
const (
	// CollScatter predicts a scatter.
	CollScatter = models.CollScatter
	// CollGather predicts a gather.
	CollGather = models.CollGather
	// CollBcast predicts a broadcast.
	CollBcast = models.CollBcast
	// CollReduce predicts a reduce.
	CollReduce = models.CollReduce
)

// Message passing.
type (
	// Rank is the per-process handle of a simulated SPMD job.
	Rank = mpi.Rank
	// Comm is a sub-communicator over a subset of ranks.
	Comm = mpi.Comm
	// Alg selects a collective algorithm (Linear, Binomial, Binary or
	// Chain).
	Alg = mpi.Alg
	// JobResult reports a completed job's duration and traffic.
	JobResult = mpi.Result
)

// Collective algorithms.
const (
	Linear   = mpi.Linear
	Binomial = mpi.Binomial
	Binary   = mpi.Binary
	Chain    = mpi.Chain
)

// Algorithms lists every collective algorithm.
var Algorithms = mpi.Algorithms

// AnySource matches any sender in Rank.Recv.
const AnySource = mpi.AnySource

// AnyTag matches any tag in Rank.Recv.
const AnyTag = mpi.AnyTag

// Fault injection. A FaultPlan installed on a System (WithFaults)
// deterministically injects link loss, link degradation, stragglers
// and crashes into every run; the same seed reproduces the same
// faults and results.
type (
	// FaultPlan schedules the fault events of a run (nil = none).
	FaultPlan = faults.Plan
	// LinkLoss injects per-transfer packet loss with RTO retransmission.
	LinkLoss = faults.LinkLoss
	// LinkDegrade multiplies a link's latency and divides its bandwidth
	// over a virtual-time window.
	LinkDegrade = faults.LinkDegrade
	// Straggler inflates one node's CPU costs by a constant factor.
	Straggler = faults.Straggler
	// Crash stops a node at a scheduled virtual time.
	Crash = faults.Crash
	// FaultStats counts what the injector actually did during a run.
	FaultStats = faults.Stats
	// CrashError reports a job that could not complete because a node
	// crashed (returned by Run instead of deadlocking).
	CrashError = mpi.CrashError
	// TimeoutError reports an expired SendTimeout/RecvTimeout deadline.
	TimeoutError = mpi.TimeoutError
	// InputError reports invalid user input to a communication call.
	InputError = mpi.InputError
	// DroppedExp identifies an estimation experiment excluded from the
	// redundancy averaging because its measurement was unreliable.
	DroppedExp = estimate.DroppedExp
)

// AnyNode matches every node index in a fault plan's link selectors.
const AnyNode = faults.Any

// DemoFaults builds the reference fault plan of the robustness
// experiment: a lossy link, a degraded link and a straggler node.
var DemoFaults = faults.Demo

// Measurement and estimation.
type (
	// MeasureOptions controls the adaptive repetition loop (confidence
	// level, relative error, repetition bounds).
	MeasureOptions = mpib.Options
	// Measurement is an adaptive measurement's statistics.
	Measurement = mpib.Measurement
	// EstimateOptions controls the estimation experiments (message
	// size, parallel scheduling, saturation length).
	EstimateOptions = estimate.Options
	// EstimateReport summarizes an estimation's cost.
	EstimateReport = estimate.Report
	// Summary is a sample summary with a Student-t confidence interval.
	Summary = stats.Summary
)

// Observability. A Trace records virtual-time spans of one simulated
// universe — message lifecycle phases, collective operations,
// measurement and estimation phases, fault incidents — without
// perturbing the simulation: attach one with WithObserver, run, then
// export. See WriteChromeTrace for the chrome://tracing view and
// FlameTraceSummary for a terminal flame summary.
type (
	// Trace is a deterministic span trace of one simulated universe.
	Trace = obs.Trace
	// TraceSpan is one recorded span.
	TraceSpan = obs.Span
	// TraceSpanID identifies a span within its trace.
	TraceSpanID = obs.SpanID
	// TraceCategory classifies a span (message, collective, measure...).
	TraceCategory = obs.Category
	// MetricsRegistry is a typed counter/gauge/histogram registry with
	// a Prometheus text exposition.
	MetricsRegistry = obs.Registry
)

// Observability constructors and exporters.
var (
	// NewTrace builds an empty span trace.
	NewTrace = obs.NewTrace
	// NewMetricsRegistry builds an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// WriteTraceJSONL exports a trace as one JSON object per line.
	WriteTraceJSONL = obs.WriteJSONL
	// ReadTraceJSONL loads a JSONL trace export.
	ReadTraceJSONL = obs.ReadJSONL
	// WriteChromeTrace exports a trace in the Chrome trace_event format
	// (open in chrome://tracing or https://ui.perfetto.dev).
	WriteChromeTrace = obs.WriteChromeTrace
	// FlameTraceSummary renders a trace as an aligned self-time table.
	FlameTraceSummary = obs.FlameSummary
)

// GlobalTrack is the track index of spans that belong to the whole
// universe rather than one node (the estimation phase narrative).
const GlobalTrack = obs.GlobalTrack

// Span categories, for filtering Trace.Spans.
const (
	TraceKernel     = obs.CatKernel
	TraceMessage    = obs.CatMessage
	TraceCollective = obs.CatCollective
	TraceMeasure    = obs.CatMeasure
	TraceEstimate   = obs.CatEstimate
	TraceTask       = obs.CatTask
	TraceFault      = obs.CatFault
)

// Experiments.
type (
	// ExperimentConfig parameterizes a figure/table reproduction.
	ExperimentConfig = experiment.Config
	// ExperimentReport is a reproduced figure or table.
	ExperimentReport = experiment.Report
	// ExperimentRunner is a named reproduction entry point.
	ExperimentRunner = experiment.Runner
)

// Multi-switch topologies. A Topology attached to a cluster adds a
// switch fabric between the nodes' access links: the simulator forwards
// messages store-and-forward across typed links (intra-switch, rack
// uplink, wide-area), and the grouped estimation exploits the leaf
// structure to collapse the experiment count.
type (
	// Topology is a switch graph with typed links and interned routes.
	Topology = topo.Topology
	// TopoLinkSpec is one fabric link class (latency, rate, lanes).
	TopoLinkSpec = topo.ClassSpec
	// TopoEdge is one undirected switch-to-switch link.
	TopoEdge = topo.Edge
	// TopoLinkClass classifies a fabric link (intra, uplink, WAN).
	TopoLinkClass = topo.Class
	// Grouping is the logical-homogeneous-group partition detected by
	// grouped estimation.
	Grouping = estimate.Grouping
)

// Fabric link classes.
const (
	LinkIntra  = topo.Intra
	LinkUplink = topo.Uplink
	LinkWAN    = topo.WAN
)

// Topology constructors.
var (
	// SingleSwitch places n nodes on one switch (the paper's platform).
	SingleSwitch = topo.SingleSwitch
	// TwoTier builds racks×perRack nodes behind one spine switch.
	TwoTier = topo.TwoTier
	// FatTree builds the k-ary fat-tree (k³/4 hosts).
	FatTree = topo.FatTree
	// MultiCluster joins sites of nodes by a wide-area full mesh.
	MultiCluster = topo.MultiCluster
	// ParseTopology parses the command-line topology syntax
	// ("single:N", "twotier:RxP", "fattree:K", "multicluster:SxP").
	ParseTopology = topo.ParseSpec
	// DefaultUplink is the default rack/spine trunk spec.
	DefaultUplink = topo.DefaultUplink
	// DefaultWAN is the default wide-area link spec.
	DefaultWAN = topo.DefaultWAN
	// ClusterFromTopology builds a homogeneous cluster over a topology
	// (zero specs select Table I-class hardware defaults).
	ClusterFromTopology = cluster.FromTopology
)

// Cluster builders.
var (
	// Table1 builds the paper's 16-node heterogeneous cluster.
	Table1 = cluster.Table1
	// Table1Hetero additionally varies the link rates.
	Table1Hetero = cluster.Table1Hetero
	// Homogeneous builds an n-node uniform cluster.
	Homogeneous = cluster.Homogeneous
	// LAM is the LAM 7.1.3 TCP profile (M1=4 KB, M2=65 KB, 64 KB leap).
	LAM = cluster.LAM
	// MPICH is the MPICH 1.2.7 TCP profile (M1=3 KB, M2=125 KB).
	MPICH = cluster.MPICH
	// Ideal is a profile without TCP irregularities.
	Ideal = cluster.Ideal
)

// Experiment harness entry points.
var (
	// ExperimentRunners lists every figure/table reproduction.
	ExperimentRunners = experiment.Runners
	// LookupExperiment finds a runner by id ("fig1" … "irreg").
	LookupExperiment = experiment.Lookup
	// RenderReport writes a report as text (chart + tables + notes).
	RenderReport = experiment.Render
	// WriteReportCSV exports a report's series as CSV.
	WriteReportCSV = experiment.WriteCSV
	// DefaultExperimentConfig is the paper's setting (Table I + LAM).
	DefaultExperimentConfig = experiment.Default
)

// Optimization helpers.
var (
	// SelectAlgAmong picks the algorithm with the smallest predicted
	// time for a collective among candidates (all four when nil);
	// ties keep the first candidate.
	SelectAlgAmong = optimize.SelectAlgAmong
	// BestRoot finds the root minimizing a linear collective's
	// predicted time.
	BestRoot = optimize.BestRoot
	// OptimizedGather splits medium messages to dodge escalations.
	OptimizedGather = optimize.OptimizedGather
	// OptimizedGatherv is the variable-size-block version.
	OptimizedGatherv = optimize.OptimizedGatherv
	// MapBinomialTree optimizes the processor-to-tree-node mapping.
	MapBinomialTree = optimize.MapBinomialTree
	// AlgCrossover locates the size where the predicted order of
	// linear and binomial scatter flips.
	AlgCrossover = optimize.Crossover
)

// Tuned collectives (model-driven, HeteroMPI-style).
type (
	// Tuner provides drop-in collectives that pick algorithms and
	// apply gather splitting by consulting an estimated model.
	Tuner = tuned.Tuner
	// TunerStats counts a tuner's decisions.
	TunerStats = tuned.Stats
)

var (
	// NewTuner builds a tuner over a tree-capable model for n ranks.
	NewTuner = tuned.New
	// ProportionalCounts splits a byte total across processors in
	// inverse proportion to their LMO per-byte costs.
	ProportionalCounts = tuned.ProportionalCounts
)

// Simulation campaigns. A campaign fans a parameter grid — seeds ×
// TCP profiles × cluster specs × experiment/estimator targets — across
// a bounded worker pool, one isolated simulation universe per task,
// and merges the results deterministically (keyed by grid coordinates,
// never by completion order) with seed-aggregated statistics.
type (
	// CampaignGrid is the parameter grid to sweep.
	CampaignGrid = campaign.Grid
	// CampaignOptions bounds the run (worker count, per-task timeout).
	CampaignOptions = campaign.Options
	// CampaignOutcome is the deterministic merged result set.
	CampaignOutcome = campaign.Outcome
	// CampaignResult is one grid point's outcome.
	CampaignResult = campaign.Result
	// CampaignAggregate summarizes one cluster×profile×target cell
	// across its seeds (mean/CI of metrics and series).
	CampaignAggregate = campaign.Aggregate
	// CampaignTarget names what a task runs: an experiment or an
	// estimator.
	CampaignTarget = campaign.Target
	// CampaignClusterSpec is a named cluster in the grid.
	CampaignClusterSpec = campaign.ClusterSpec
	// CampaignStats exposes a running campaign's live progress counters.
	CampaignStats = campaign.Stats
)

// Campaign target kinds.
const (
	// ExperimentTarget runs a figure/table experiment per grid point.
	ExperimentTarget = campaign.Experiment
	// EstimatorTarget runs a model estimation per grid point.
	EstimatorTarget = campaign.Estimator
)

// RunCampaign executes the grid under ctx and returns the merged
// outcome; Outcome.Canonical() is byte-identical for any worker count.
func RunCampaign(ctx context.Context, g CampaignGrid, o CampaignOptions) (*CampaignOutcome, error) {
	return campaign.Run(ctx, g, o)
}

// Model persistence.
var (
	// NewModelFile bundles estimated models for JSON serialization.
	NewModelFile = models.NewModelFile
	// UnmarshalModelFile reconstructs models from JSON.
	UnmarshalModelFile = models.UnmarshalModelFile
)

// System ties a cluster, a TCP profile and a seed together: the
// simulated machine every measurement and estimation runs against.
type System struct {
	cfg mpi.Config
}

// NewSystem builds a system over the cluster with the given TCP
// profile (nil for ideal) and randomness seed.
func NewSystem(cl *Cluster, prof *TCPProfile, seed int64) *System {
	return &System{cfg: mpi.Config{Cluster: cl, Profile: prof, Seed: seed}}
}

// Cluster returns the system's cluster description.
func (s *System) Cluster() *Cluster { return s.cfg.Cluster }

// WithFaults installs a fault plan on the system (nil removes it) and
// returns the system for chaining. Every subsequent Run, measurement
// and estimation executes under the plan; faults are drawn from a
// dedicated RNG stream derived from the system seed, so runs remain
// deterministic and an empty plan leaves them bit-identical.
func (s *System) WithFaults(p *FaultPlan) *System {
	s.cfg.Faults = p
	return s
}

// Faults returns the system's installed fault plan (nil when none).
func (s *System) Faults() *FaultPlan { return s.cfg.Faults }

// WithTopology attaches a multi-switch topology to the system's
// cluster (nil restores the single-switch view) and returns the system
// for chaining. The topology must place exactly the cluster's nodes;
// the mismatch surfaces as a validation error on the next run.
func (s *System) WithTopology(t *Topology) *System {
	s.cfg.Cluster.Topo = t
	return s
}

// Run executes an SPMD body on every rank of the simulated cluster.
// Pass WithObserver to record a span trace of the run.
func (s *System) Run(body func(r *Rank), opts ...RunOption) (JobResult, error) {
	cfg := s.cfg
	var rc runConfig
	for _, o := range opts {
		o.applyRun(&rc)
	}
	if rc.obs != nil {
		cfg.Obs = rc.obs
	}
	return mpi.Run(cfg, body)
}

// Measure runs op collectively with the adaptive repetition loop and
// root-side timing on the designated rank; see mpib.Measure. It must
// be called from inside a Run body. The defaults are the paper's
// (95% confidence, 2.5% relative error); adjust with WithReps,
// WithConfidence or WithMeasureOptions.
func Measure(r *Rank, designated int, op func(), opts ...MeasureOption) Measurement {
	var cfg measureConfig
	for _, o := range opts {
		o.applyMeasure(&cfg)
	}
	return mpib.Measure(r, designated, mpib.RootTiming, cfg.opt, op)
}

// MeasureMakespan is Measure with max timing (global makespan).
func MeasureMakespan(r *Rank, op func(), opts ...MeasureOption) Measurement {
	var cfg measureConfig
	for _, o := range opts {
		o.applyMeasure(&cfg)
	}
	return mpib.Measure(r, 0, mpib.MaxTiming, cfg.opt, op)
}

// DetectGatherIrregularity scans linear gather for the empirical
// region (M1, M2) and escalation statistics.
func (s *System) DetectGatherIrregularity(root int, opts ...EstimateOptions) (GatherEmpirical, EstimateReport, error) {
	opt, err := pickOpt(opts)
	if err != nil {
		return GatherEmpirical{}, EstimateReport{}, err
	}
	return estimate.DetectGatherIrregularity(
		s.cfg, root, estimate.DefaultScanSizes(), 20, opt)
}

// Experiment runs one of the paper's figure/table reproductions on
// this system.
func (s *System) Experiment(id string) (*ExperimentReport, error) {
	r := experiment.Lookup(id)
	if r == nil {
		return nil, errUnknownExperiment(id)
	}
	cfg := experiment.Default()
	cfg.Cluster = s.cfg.Cluster
	cfg.Profile = s.cfg.Profile
	cfg.Seed = s.cfg.Seed
	cfg.Faults = s.cfg.Faults
	return r.Run(cfg)
}

// pickOpt resolves the legacy variadic EstimateOptions convention:
// none means the defaults (parallel schedule), exactly one is used as
// given, and more than one is an error — silently ignoring the extras,
// as earlier versions did, hid real configuration mistakes.
func pickOpt(opts []EstimateOptions) (EstimateOptions, error) {
	switch len(opts) {
	case 0:
		return EstimateOptions{Parallel: true}, nil
	case 1:
		return opts[0], nil
	default:
		return EstimateOptions{}, fmt.Errorf(
			"commperf: %d EstimateOptions given; pass at most one (merge the structs, or use Estimate with functional options)", len(opts))
	}
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "commperf: unknown experiment " + string(e) + " (see ExperimentRunners)"
}
