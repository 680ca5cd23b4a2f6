package main

import (
	"math"
	"sort"
)

// metricDef is one metric of the benchmark. BENCHMARK.json at the
// repository root mirrors these tables (a test keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a comparison calls it a regression.
	Bound float64
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string
	// Exact marks a per-layer metric that the seed determines to the
	// last bit: it measures what the repository computes, not how fast,
	// so -compare requires it to be identical seed for seed. Untraced
	// runs record the exact metrics their workload has as well.
	Exact bool
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. An operation is one estimation
// (estimate-table1, fabric-fattree1024), one tune (tune-table1) or one
// hot 256-row /predict batch (serve-mixed). allocs_per_op repeats to
// 0.01% over ten seeds, well inside its bound. The time metrics spread by
// 5–21% over ten runs, because the host's other tenants slow whole
// minutes down however long a run is, so they take the widest bound
// (see README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
}

// perLayer are the traced run's per-layer metrics. A layer that a
// workload leaves idle reports 0.
var perLayer = []metricDef{
	{Name: "vtime.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on the estimation workloads and tune-table1"},
	{Name: "vtime.events_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on the estimation workloads", Exact: true},
	{Name: "vtime.resumes_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on the estimation workloads"},
	{Name: "simnet.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on the estimation workloads and tune-table1"},
	{Name: "simnet.messages_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on the estimation workloads"},
	{Name: "simnet.escalations_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on estimate-table1"},
	{Name: "mpib.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on the estimation workloads and tune-table1"},
	{Name: "mpib.reps_per_experiment", Unit: "count", Better: "lower", Moves: "ops_per_s on the estimation workloads"},
	{Name: "mpi.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on estimate-table1"},
	{Name: "mpi.collectives_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on estimate-table1"},
	{Name: "topo.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on fabric-fattree1024"},
	{Name: "topo.build_s", Unit: "s", Better: "lower", Moves: "setup_s on fabric-fattree1024"},
	{Name: "collective.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on serve-mixed and tune-table1"},
	{Name: "estimate.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on the estimation workloads"},
	{Name: "estimate.experiments_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on the estimation workloads"},
	{Name: "estimate.retries_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on the estimation workloads"},
	{Name: "estimate.nonconverged_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on the estimation workloads"},
	{Name: "estimate.virtual_cost_s", Unit: "s", Better: "lower", Moves: "nothing: simulated estimation cost (paper §IV) must not move", Exact: true},
	{Name: "estimate.hethockney_s", Unit: "s", Better: "lower", Moves: "ops_per_s on estimate-table1"},
	{Name: "estimate.logp_s", Unit: "s", Better: "lower", Moves: "ops_per_s on estimate-table1"},
	{Name: "estimate.plogp_s", Unit: "s", Better: "lower", Moves: "ops_per_s on estimate-table1"},
	{Name: "estimate.lmox_s", Unit: "s", Better: "lower", Moves: "ops_per_s on estimate-table1"},
	{Name: "estimate.irregularity_s", Unit: "s", Better: "lower", Moves: "ops_per_s on estimate-table1"},
	{Name: "estimate.grouped_s", Unit: "s", Better: "lower", Moves: "ops_per_s on fabric-fattree1024"},
	{Name: "models.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "models.predict_ns_linear", Unit: "ns", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "models.predict_ns_binomial", Unit: "ns", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "models.prune_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on tune-table1, slightly"},
	{Name: "campaign.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on tune-table1"},
	{Name: "campaign.wall_s", Unit: "s", Better: "lower", Moves: "ops_per_s on tune-table1"},
	{Name: "campaign.utilization", Unit: "fraction", Better: "higher", Moves: "ops_per_s on tune-table1"},
	{Name: "campaign.task_ms_p50", Unit: "ms", Better: "lower", Moves: "ops_per_s on tune-table1"},
	{Name: "campaign.failed_per_op", Unit: "count", Better: "lower", Moves: "correctness of tune-table1"},
	{Name: "autotune.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on tune-table1"},
	{Name: "autotune.simulated_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on tune-table1"},
	{Name: "autotune.keep_ratio", Unit: "fraction", Better: "lower", Moves: "ops_per_s on tune-table1"},
	{Name: "autotune.agreement", Unit: "fraction", Better: "higher", Moves: "nothing: model fidelity must not fall", Exact: true},
	{Name: "serve.cpu_share", Unit: "fraction", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "serve.handler_ms_p50", Unit: "ms", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "serve.handler_ms_p90", Unit: "ms", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "serve.wait_ms_p50", Unit: "ms", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "serve.lookup_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "serve.hit_ratio", Unit: "fraction", Better: "higher", Moves: "ops_per_s on serve-mixed"},
	{Name: "serve.snapshot_swaps", Unit: "count", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "serve.miss_ms_p50", Unit: "ms", Better: "lower", Moves: "ops_per_s on serve-mixed"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "correctness of serve-mixed"},
	{Name: "runtime.cpu_share", Unit: "fraction", Better: "lower", Moves: "every time metric"},
	{Name: "runtime.gc_cpu_share", Unit: "fraction", Better: "lower", Moves: "every time metric"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "every time metric, allocs_per_op"},
	{Name: "std.cpu_share", Unit: "fraction", Better: "lower", Moves: "every time metric"},
	{Name: "bench.cpu_share", Unit: "fraction", Better: "lower", Moves: "nothing: the load generator's own cost"},
	{Name: "other.cpu_share", Unit: "fraction", Better: "lower", Moves: "every time metric"},
	{Name: "trace_overhead_x", Unit: "ratio", Better: "lower", Moves: "nothing: traced over untraced median operation latency"},
}

// stat is one reported metric: the median (or the single value) of its
// samples, their quartiles and their count.
type stat struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// single is a metric measured once per run.
func single(v float64) stat { return over(v, 1) }

// over is a metric computed once over n samples, such as a rate.
func over(v float64, n int) stat { return stat{Value: v, Q1: v, Q3: v, N: n} }

// summarize reports the median and quartiles of xs.
func summarize(xs []float64) stat {
	q := quantiles(xs, 0.25, 0.5, 0.75)
	return stat{Value: q[1], Q1: q[0], Q3: q[2], N: len(xs)}
}

// quantiles interpolates linearly between the closest ranks of xs;
// every quantile of an empty slice is NaN.
func quantiles(xs []float64, qs ...float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		switch {
		case len(s) == 0:
			out[i] = math.NaN()
		case len(s) == 1:
			out[i] = s[0]
		default:
			pos := q * float64(len(s)-1)
			lo := int(pos)
			if lo >= len(s)-1 {
				out[i] = s[len(s)-1]
				continue
			}
			out[i] = s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
		}
	}
	return out
}

// median is the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantiles(xs, 0.5)[0] }
