// Package campaign fans a grid of simulation parameters — seeds × TCP
// profiles × cluster specs × experiment/estimator targets — across a
// bounded pool of workers, one isolated vtime/simnet universe per task.
// Simulated runs are deterministic and fully independent, so the
// campaign is embarrassingly parallel: the engine guarantees that the
// merged output depends only on the grid, never on completion order or
// worker count. Per-task wall-clock timeouts, context cancellation and
// panic capture keep one bad run from killing the campaign, and the
// aggregator turns single-seed figures into seed-swept statistics
// (mean and Student-t confidence intervals of estimated parameters and
// prediction errors).
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/textplot"
)

// TargetKind selects what a grid target runs.
type TargetKind string

// The target kinds.
const (
	// Experiment runs one of the figure/table reproductions
	// (experiment.Lookup IDs: "fig1" … "faults").
	Experiment TargetKind = "experiment"
	// Estimator runs the estimation of one model family of the
	// estimation table (an estimate.Families name) and returns the
	// estimated models plus parameter metrics.
	Estimator TargetKind = "estimator"
)

// Target names one unit of work of the grid.
type Target struct {
	Kind TargetKind `json:"kind"`
	ID   string     `json:"id"`
}

// String renders the target as kind:id.
func (t Target) String() string { return string(t.Kind) + ":" + t.ID }

// ClusterSpec is a named cluster description; the name keys results
// and registry entries.
type ClusterSpec struct {
	Name    string
	Cluster *cluster.Cluster
}

// Grid is the campaign's parameter space: the cross product of seeds,
// TCP profiles, clusters and targets, one task per combination.
type Grid struct {
	Seeds    []int64               // default: {1}
	Profiles []*cluster.TCPProfile // default: {LAM}
	Clusters []ClusterSpec         // default: {table1}
	Targets  []Target              // required
	Est      estimate.Options      // estimation options for every task
	ObsReps  int                   // observation repetitions (experiment targets; see experiment.Probe)
	Root     int                   // collective root
}

func (g Grid) withDefaults() Grid {
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{1}
	}
	if len(g.Profiles) == 0 {
		g.Profiles = []*cluster.TCPProfile{cluster.LAM()}
	}
	if len(g.Clusters) == 0 {
		g.Clusters = []ClusterSpec{{Name: "table1", Cluster: cluster.Table1()}}
	}
	if reflect.DeepEqual(g.Est, estimate.Options{}) {
		g.Est = estimate.Options{Parallel: true}
	}
	return g
}

// validate fails fast on an unusable grid, before any worker starts.
func (g Grid) validate() error {
	if len(g.Targets) == 0 {
		return fmt.Errorf("campaign: grid has no targets")
	}
	for _, t := range g.Targets {
		switch t.Kind {
		case Experiment:
			if experiment.Lookup(t.ID) == nil {
				return fmt.Errorf("campaign: unknown experiment %q", t.ID)
			}
		case Estimator:
			if fams := estimate.Families(false); !slices.Contains(fams, t.ID) {
				return fmt.Errorf("campaign: unknown estimator %q (%s)", t.ID, strings.Join(fams, ", "))
			}
		default:
			return fmt.Errorf("campaign: unknown target kind %q", t.Kind)
		}
	}
	for _, c := range g.Clusters {
		if c.Cluster == nil {
			return fmt.Errorf("campaign: cluster spec %q has a nil cluster", c.Name)
		}
	}
	for _, p := range g.Profiles {
		if p == nil {
			return fmt.Errorf("campaign: nil TCP profile in grid")
		}
	}
	return nil
}

// Coord locates a task in the grid (indexes into the grid's slices).
// Results are keyed and ordered by coordinates, never by completion
// order.
type Coord struct {
	Cluster int `json:"cluster"`
	Profile int `json:"profile"`
	Target  int `json:"target"`
	Seed    int `json:"seed"`
}

// Task is one resolved grid point.
type Task struct {
	Index   int
	Coord   Coord
	Seed    int64
	Profile *cluster.TCPProfile
	Cluster ClusterSpec
	Target  Target
}

// tasks enumerates the grid in canonical order: clusters, then
// profiles, then targets, with seeds innermost so per-seed results of
// one configuration are contiguous.
func (g Grid) tasks() []Task {
	var ts []Task
	for ci, cl := range g.Clusters {
		for pi, prof := range g.Profiles {
			for ti, tg := range g.Targets {
				for si, seed := range g.Seeds {
					ts = append(ts, Task{
						Index:   len(ts),
						Coord:   Coord{Cluster: ci, Profile: pi, Target: ti, Seed: si},
						Seed:    seed,
						Profile: prof,
						Cluster: cl,
						Target:  tg,
					})
				}
			}
		}
	}
	return ts
}

// Result is one task's outcome. Run stamps the identity fields, Coord
// through Target, with the task's grid point; Each leaves them empty.
// Everything except Elapsed is a pure function of the grid point, so
// marshalling a Result (and hence an Outcome) is deterministic; Elapsed
// is wall-clock and excluded from the JSON form.
type Result struct {
	Coord   Coord  `json:"coord"`
	Cluster string `json:"cluster"`
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	Target  Target `json:"target"`

	// Series are the produced observation/prediction sweeps
	// (experiment targets).
	Series []textplot.Series `json:"series,omitempty"`
	// Metrics are named scalars: prediction errors per model for
	// experiment targets, estimated parameters and costs for
	// estimator targets.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Models carries the estimated models (estimator targets only).
	Models *models.ModelFile `json:"models,omitempty"`

	Err      string `json:"error,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`

	Elapsed time.Duration `json:"-"` // wall clock; nondeterministic

	// Wall-clock offsets from the campaign start, feeding the task
	// Gantt spans of Options.Obs; nondeterministic, hence unexported
	// and absent from the JSON form.
	wallStart, wallEnd time.Duration
}

// Options control the engine. Each honours Parallel, TaskTimeout and
// Stats; RunTask and Obs describe grid tasks, and only Run reads them.
type Options struct {
	// Parallel is the worker count; <=0 uses GOMAXPROCS.
	Parallel int
	// TaskTimeout bounds each task's wall-clock time (0 = none). A
	// timed-out task yields an error Result; its abandoned simulation
	// finishes in the background and is discarded.
	TaskTimeout time.Duration
	// Stats, when non-nil, receives live progress counters (worker
	// utilization for a serving layer's metrics endpoint).
	Stats *Stats
	// RunTask, when non-nil, replaces the built-in task executor — the
	// fault-injection seam for robustness tests (the serving layer's
	// chaos suite scripts slow, failing and panicking tasks through
	// it). The engine's panic capture, timeout and cancellation still
	// wrap the hook exactly as they wrap real tasks, and Run stamps the
	// hook's result with the task's identity, so the hook returns only
	// what it computed.
	RunTask func(Grid, Task) Result
	// Obs, when non-nil, receives one task span per grid point (track =
	// task index, wall-clock offsets from campaign start) — a Gantt
	// chart of the pool. Task spans are emitted after all workers have
	// finished, so the trace is safe to read once Run returns. Note the
	// per-task simulation traces are NOT merged here: a Trace belongs to
	// one universe, and g.Est.Obs is ignored for exactly that reason.
	Obs *obs.Trace
}

// Outcome is a completed campaign: per-task results in grid order plus
// per-configuration aggregates across seeds (Each's outcome has none).
// Its JSON form contains no wall-clock quantities, so equal grids
// produce byte-identical marshalled outcomes regardless of worker
// count.
type Outcome struct {
	Results    []Result    `json:"results"`
	Aggregates []Aggregate `json:"aggregates"`

	Wall time.Duration `json:"-"` // campaign wall-clock time
}

// Canonical renders the outcome's deterministic JSON form; two
// campaigns over the same grid produce identical bytes whatever the
// parallelism.
func (o *Outcome) Canonical() ([]byte, error) {
	return json.MarshalIndent(o, "", "  ")
}

// Failed counts the tasks that produced an error.
func (o *Outcome) Failed() int {
	n := 0
	for _, r := range o.Results {
		if r.Err != "" {
			n++
		}
	}
	return n
}

// Run executes the campaign: every grid task exactly once on Each's
// worker pool, results merged by grid coordinate and stamped with their
// task's identity. A cancelled context stops the dispatch and marks the
// remaining tasks as cancelled; Run itself only returns an error for an
// invalid grid.
func Run(ctx context.Context, g Grid, o Options) (*Outcome, error) {
	// A Trace observes exactly one simulated universe and is not safe
	// for concurrent writers, so an estimation observer must not be
	// shared across the pool's tasks (see Options.Obs).
	g.Est.Obs = nil
	g = g.withDefaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	taskFn := runTaskFn
	if o.RunTask != nil {
		taskFn = o.RunTask
	}
	tasks := g.tasks()
	out := Each(ctx, len(tasks), o, func(i int) Result { return taskFn(g, tasks[i]) })
	for i, t := range tasks {
		r := &out.Results[i]
		r.Coord, r.Cluster, r.Profile, r.Seed, r.Target = t.Coord, t.Cluster.Name, t.Profile.Name, t.Seed, t.Target
		// Task Gantt spans, emitted single-threaded after the pool
		// drained so the shared trace sees no concurrent writers. A task
		// that never ran (wallEnd zero) gets no span.
		if o.Obs == nil || r.wallEnd <= r.wallStart {
			continue
		}
		sp := o.Obs.Emit(obs.CatTask, t.Target.String(), t.Index, r.wallStart, r.wallEnd)
		o.Obs.Annotate(sp, t.Coord.Cluster, t.Coord.Profile, int(t.Seed))
		if r.Err != "" {
			o.Obs.Point(obs.CatFault, "task-error", t.Index, r.wallEnd)
		}
	}
	out.Aggregates = aggregate(g, out.Results)
	return out, nil
}

// Each calls run(0), …, run(n-1), each exactly once, across a bounded
// pool of o.Parallel workers and returns the results in index order:
// Run's pool, for work that is not a grid of targets. Each call runs
// under execute's panic capture, o.TaskTimeout and cancellation, and
// o.Stats counts the calls live. A cancelled context stops the
// dispatch: an index never dispatched gets a cancellation error.
func Each(ctx context.Context, n int, o Options, run func(i int) Result) *Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := o.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	start := time.Now()
	st := o.Stats
	if st == nil {
		st = &Stats{}
	}
	st.Workers.Store(int64(workers))
	st.Total.Store(int64(n))

	results := make([]Result, n)
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				st.Busy.Add(1)
				results[i] = execute(ctx, i, o.TaskTimeout, start, run)
				st.Busy.Add(-1)
				st.Done.Add(1)
				if results[i].Err != "" {
					st.Failed.Add(1)
				}
				if results[i].Panicked {
					st.Panicked.Add(1)
				}
			}
		}()
	}
	sent := 0
dispatch:
	for ; sent < n; sent++ {
		select {
		case queue <- sent:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(queue)
	wg.Wait()
	for i := sent; i < n; i++ {
		results[i].Err = "campaign cancelled before the task ran"
	}
	return &Outcome{Results: results, Wall: time.Since(start)}
}

// execute runs call i in a child goroutine with panic capture, and
// enforces the wall-clock timeout and cancellation. On timeout or
// cancellation the call is abandoned (it completes in the background
// and its result is discarded) — the simulator has no preemption
// points, and a stuck universe must not stall the pool.
func execute(ctx context.Context, i int, timeout time.Duration, epoch time.Time, run func(int) Result) Result {
	start := time.Now()
	done := make(chan Result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- Result{Panicked: true, Err: fmt.Sprintf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		done <- run(i)
	}()
	var timer <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		timer = tm.C
	}
	var r Result
	select {
	case r = <-done:
	case <-timer:
		r = Result{Err: fmt.Sprintf("task exceeded the %v wall-clock timeout", timeout)}
	case <-ctx.Done():
		r = Result{Err: "campaign cancelled: " + ctx.Err().Error()}
	}
	r.Elapsed = time.Since(start)
	r.wallStart = start.Sub(epoch)
	r.wallEnd = r.wallStart + r.Elapsed
	return r
}
