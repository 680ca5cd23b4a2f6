package campaign

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
)

// size is the number of tasks g enumerates: one per cluster, profile,
// target and seed.
func size(g Grid) int {
	g = g.withDefaults()
	return len(g.Clusters) * len(g.Profiles) * len(g.Targets) * len(g.Seeds)
}

// smallGrid is a fast 5-node grid exercising both target kinds across
// three seeds.
func smallGrid() Grid {
	return Grid{
		Seeds:    []int64{1, 2, 3},
		Profiles: []*cluster.TCPProfile{cluster.LAM()},
		Clusters: []ClusterSpec{{Name: "table1:5", Cluster: cluster.Table1().Prefix(5)}},
		Targets: []Target{
			{Kind: Experiment, ID: "fig1"},
			{Kind: Estimator, ID: "hethockney"},
		},
		ObsReps: 4,
	}
}

// TestDeterminismAcrossParallelism is the campaign's core contract:
// the same grid merged under one worker and under eight workers must
// produce byte-identical canonical output — seeded runs are
// deterministic, and completion order must not leak into the result.
// The grid runs every estimator family of the estimation table.
func TestDeterminismAcrossParallelism(t *testing.T) {
	g := smallGrid()
	g.Targets = []Target{{Kind: Experiment, ID: "fig1"}}
	for _, f := range estimate.Families(false) {
		g.Targets = append(g.Targets, Target{Kind: Estimator, ID: f})
	}
	serial, err := Run(context.Background(), g, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), g, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, err := serial.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel=1 and parallel=8 outputs differ:\n--- serial ---\n%.2000s\n--- parallel ---\n%.2000s", a, b)
	}
	if serial.Failed() != 0 {
		t.Fatalf("%d tasks failed", serial.Failed())
	}
}

func TestResultsKeyedByGridCoordinates(t *testing.T) {
	g := smallGrid()
	out, err := Run(context.Background(), g, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != size(g) {
		t.Fatalf("got %d results, want %d", len(out.Results), size(g))
	}
	// Task order: targets outer, seeds inner.
	wantSeeds := []int64{1, 2, 3, 1, 2, 3}
	for i, r := range out.Results {
		if r.Seed != wantSeeds[i] {
			t.Fatalf("result %d has seed %d, want %d", i, r.Seed, wantSeeds[i])
		}
	}
	for i, r := range out.Results[:3] {
		if r.Target.ID != "fig1" || len(r.Series) == 0 {
			t.Fatalf("result %d: want fig1 series, got %+v", i, r.Target)
		}
		if len(r.Metrics) == 0 {
			t.Fatalf("result %d: fig1 should yield prediction-error metrics", i)
		}
	}
	for i, r := range out.Results[3:] {
		if r.Models == nil || r.Models.GetHetHockney() == nil {
			t.Fatalf("estimator result %d lost its models", i)
		}
		if r.Models.Meta == nil || r.Models.Meta.Seed != wantSeeds[3+i] {
			t.Fatalf("estimator result %d has wrong meta: %+v", i, r.Models.Meta)
		}
	}
}

func TestAggregatesSummarizeAcrossSeeds(t *testing.T) {
	g := smallGrid()
	out, err := Run(context.Background(), g, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Aggregates) != 2 {
		t.Fatalf("want 2 aggregates (one per target), got %d", len(out.Aggregates))
	}
	fig := out.Aggregates[0]
	if fig.Target.ID != "fig1" || fig.Seeds != 3 || fig.OK != 3 {
		t.Fatalf("fig1 aggregate = %+v", fig)
	}
	if len(fig.Series) == 0 {
		t.Fatal("fig1 aggregate has no seed-swept series")
	}
	for _, s := range fig.Series {
		if len(s.Mean) != len(s.X) || len(s.CIHalf) != len(s.X) {
			t.Fatalf("ragged aggregate series %q", s.Name)
		}
	}
	est := out.Aggregates[1]
	sum, present := est.Metrics["hockney.alpha"]
	if !present || sum.N != 3 {
		t.Fatalf("hockney.alpha summary missing or wrong N: %+v", est.Metrics)
	}
	if sum.Mean <= 0 {
		t.Fatalf("estimated alpha mean %v not positive", sum.Mean)
	}
}

// TestEstimatorMetricKeys pins the metric keys every estimator target
// reports on a 3-node Ideal platform, where no gather region exists
// (so no lmo.M1/M2): each target keeps the keys below, and every target
// reports the totals and the cost of each procedure it ran.
func TestEstimatorMetricKeys(t *testing.T) {
	lmo := []string{"lmo.C[0]", "lmo.C[1]", "lmo.C[2]", "lmo.t[0]", "lmo.t[1]", "lmo.t[2]", "lmo.L[0][1]", "lmo.beta[0][1]"}
	want := map[string][]string{
		"all": append([]string{"cost_s.hockney", "cost_s.logp", "cost_s.plogp", "cost_s.lmo",
			"cost_s.irregularity-scan", "hockney.alpha", "hockney.beta"}, lmo...),
		"lmo":        append([]string{"cost_s", "experiments", "repetitions"}, lmo...),
		"lmox":       lmo,
		"scan":       {"cost_s.irregularity-scan"},
		"lmo5":       {"lmo5.C[0]", "lmo5.C[1]", "lmo5.C[2]", "lmo5.t[0]", "lmo5.t[1]", "lmo5.t[2]", "cost_s"},
		"hethockney": {"hockney.alpha", "hockney.beta", "hethockney.alpha[0][1]", "hethockney.beta[0][1]", "cost_s", "experiments", "repetitions"},
		"hockney":    {"hockney.alpha", "hockney.beta", "cost_s"},
		"logp":       {"logp.L", "logp.o", "logp.g", "loggp.G", "cost_s"},
		"plogp":      {"plogp.L", "plogp.g(1)", "plogp.g(64K)", "cost_s"},
	}
	g := Grid{
		Profiles: []*cluster.TCPProfile{cluster.Ideal()},
		Clusters: []ClusterSpec{{Name: "table1:3", Cluster: cluster.Table1().Prefix(3)}},
	}
	g.Est.Parallel, g.Est.Mpib.MinReps, g.Est.Mpib.MaxReps = true, 2, 2
	for _, f := range estimate.Families(false) {
		g.Targets = append(g.Targets, Target{Kind: Estimator, ID: f})
	}
	out, err := Run(context.Background(), g, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Results {
		keys, ok := want[r.Target.ID]
		if r.Err != "" || !ok {
			t.Fatalf("%s: err %q, pinned keys %v", r.Target, r.Err, ok)
		}
		for _, k := range slices.Concat(keys, []string{"cost_s", "experiments", "repetitions"}) {
			if _, present := r.Metrics[k]; !present {
				t.Errorf("%s lacks metric %q", r.Target, k)
			}
		}
		procs := 0
		for k := range r.Metrics {
			if strings.HasPrefix(k, "cost_s.") {
				procs++
			}
		}
		if procs == 0 {
			t.Errorf("%s reports no procedure cost", r.Target)
		}
	}
}

// TestSeedSweepActuallySweeps checks that the seed axis reaches the
// simulator. Scatter-shaped runs are legitimately seed-invariant (the
// escalations are a many-to-one phenomenon), so the probe is the LMO
// estimator's gather irregularity scan, whose escalation draws — and
// therefore scan cost — depend on the seed.
func TestSeedSweepActuallySweeps(t *testing.T) {
	g := Grid{
		Seeds:    []int64{1, 2, 3},
		Clusters: []ClusterSpec{{Name: "table1:5", Cluster: cluster.Table1().Prefix(5)}},
		Targets:  []Target{{Kind: Estimator, ID: "lmo"}},
	}
	out, err := Run(context.Background(), g, Options{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	cost := out.Aggregates[0].Metrics["cost_s"]
	if cost.N != 3 || cost.StdDev == 0 {
		t.Fatalf("gather-scan cost identical across seeds; seed is not reaching the simulator: %+v", cost)
	}
	if out.Results[0].Models.GetLMO() == nil {
		t.Fatal("lmo estimator result lost its model")
	}
}

func TestPanicCaptured(t *testing.T) {
	defer func(orig func(Grid, Task) Result) { runTaskFn = orig }(runTaskFn)
	var calls atomic.Int64
	runTaskFn = func(g Grid, t Task) Result {
		if calls.Add(1) == 1 {
			panic("one bad universe")
		}
		return Result{}
	}
	g := smallGrid()
	out, err := Run(context.Background(), g, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() != 1 {
		t.Fatalf("want exactly the panicking task to fail, got %d failures", out.Failed())
	}
	r := out.Results[0]
	if !r.Panicked || !strings.Contains(r.Err, "one bad universe") {
		t.Fatalf("panic not captured: %+v", r)
	}
	// The rest of the campaign survived.
	if int(calls.Load()) != size(g) {
		t.Fatalf("campaign stopped early: %d of %d tasks ran", calls.Load(), size(g))
	}
}

func TestTaskTimeout(t *testing.T) {
	defer func(orig func(Grid, Task) Result) { runTaskFn = orig }(runTaskFn)
	runTaskFn = func(g Grid, tk Task) Result {
		if tk.Index == 0 {
			time.Sleep(2 * time.Second)
		}
		return Result{}
	}
	g := smallGrid()
	start := time.Now()
	out, err := Run(context.Background(), g, Options{Parallel: 2, TaskTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("timeout did not free the worker (campaign took %v)", took)
	}
	if !strings.Contains(out.Results[0].Err, "timeout") {
		t.Fatalf("task 0 should have timed out: %+v", out.Results[0])
	}
	if out.Failed() != 1 {
		t.Fatalf("only task 0 should fail, got %d failures", out.Failed())
	}
}

func TestCancellationMarksRemainingTasks(t *testing.T) {
	defer func(orig func(Grid, Task) Result) { runTaskFn = orig }(runTaskFn)
	ctx, cancel := context.WithCancel(context.Background())
	runTaskFn = func(g Grid, tk Task) Result {
		cancel() // cancel the campaign as soon as the first task runs
		return Result{}
	}
	out, err := Run(ctx, smallGrid(), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, r := range out.Results {
		if strings.Contains(r.Err, "cancel") {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no task observed the cancellation")
	}
	if len(out.Results) != size(smallGrid()) {
		t.Fatal("cancelled campaign must still merge a result per task")
	}
}

func TestGridValidation(t *testing.T) {
	bad := []Grid{
		{},
		{Targets: []Target{{Kind: Experiment, ID: "nope"}}},
		{Targets: []Target{{Kind: Estimator, ID: "nope"}}},
		{Targets: []Target{{Kind: "wat", ID: "fig1"}}},
		{Targets: []Target{{Kind: Experiment, ID: "fig1"}},
			Clusters: []ClusterSpec{{Name: "nilcl"}}},
	}
	for i, g := range bad {
		if _, err := Run(context.Background(), g, Options{}); err == nil {
			t.Fatalf("grid %d should have been rejected", i)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	var st Stats
	g := smallGrid()
	if _, err := Run(context.Background(), g, Options{Parallel: 3, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Total != int64(size(g)) || snap.Done != int64(size(g)) {
		t.Fatalf("counters off: %+v", snap)
	}
	if snap.Busy != 0 || snap.Failed != 0 {
		t.Fatalf("counters off after completion: %+v", snap)
	}
}

// TestEachRunsEveryIndexOnce checks the bare pool under Run: every
// index runs exactly once, the results come back in index order with
// no aggregates, and the pool never outnumbers the calls.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	var st Stats
	var calls [40]atomic.Int64
	out := Each(context.Background(), len(calls), Options{Parallel: 64, Stats: &st}, func(i int) Result {
		calls[i].Add(1)
		return Result{Metrics: map[string]float64{"i": float64(i)}}
	})
	if len(out.Results) != len(calls) || out.Aggregates != nil {
		t.Fatalf("got %d results and %d aggregates, want %d and none", len(out.Results), len(out.Aggregates), len(calls))
	}
	for i, r := range out.Results {
		if calls[i].Load() != 1 || r.Metrics["i"] != float64(i) || r.Err != "" {
			t.Fatalf("index %d ran %d times and returned %+v", i, calls[i].Load(), r)
		}
	}
	if snap := st.Snapshot(); snap.Workers != int64(len(calls)) || snap.Done != int64(len(calls)) {
		t.Fatalf("stats = %+v, want %d workers and as many calls done", snap, len(calls))
	}
}

// TestRunTaskHook checks the fault-injection seam: Options.RunTask
// replaces the built-in executor for every task, the engine stamps the
// hook's plain result with its task's identity, and the engine's panic
// capture and stats accounting wrap the hook exactly as they wrap real
// tasks.
func TestRunTaskHook(t *testing.T) {
	g := smallGrid()
	var st Stats
	var hooked atomic.Int64
	out, err := Run(context.Background(), g, Options{
		Parallel: 2,
		Stats:    &st,
		RunTask: func(_ Grid, tk Task) Result {
			hooked.Add(1)
			if tk.Seed == 2 {
				panic("injected hook panic")
			}
			return Result{Metrics: map[string]float64{"injected": float64(tk.Seed)}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(hooked.Load()) != size(g) {
		t.Fatalf("hook ran %d times, want every task (%d)", hooked.Load(), size(g))
	}
	var panicked, injected int
	for i, r := range out.Results {
		want := Coord{Target: i / len(g.Seeds), Seed: i % len(g.Seeds)}
		if r.Coord != want || r.Seed != g.Seeds[want.Seed] || r.Target != g.Targets[want.Target] {
			t.Fatalf("result %d not stamped with its task: coord %+v seed %d target %v", i, r.Coord, r.Seed, r.Target)
		}
		switch {
		case r.Seed == 2:
			if !r.Panicked || !strings.Contains(r.Err, "injected hook panic") {
				t.Fatalf("seed-2 task should carry the captured panic: %+v", r)
			}
			panicked++
		default:
			if r.Err != "" || r.Metrics["injected"] != float64(r.Seed) {
				t.Fatalf("hooked task result corrupted: %+v", r)
			}
			injected++
		}
	}
	if panicked == 0 || injected == 0 {
		t.Fatal("hook test must see both panicking and clean tasks")
	}
	snap := st.Snapshot()
	if snap.Panicked != int64(panicked) || snap.Failed != int64(panicked) {
		t.Fatalf("stats = %+v, want %d panicked/failed", snap, panicked)
	}
}
