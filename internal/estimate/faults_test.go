package estimate

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/topo"
)

// observeScatterLinear measures the linear-scatter makespan on the
// given configuration: the observable the estimated models must
// predict.
func observeScatterLinear(t *testing.T, cfg mpi.Config, m int) float64 {
	t.Helper()
	n := cfg.Cluster.N()
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = make([]byte, m)
	}
	var obs float64
	_, err := mpi.Run(cfg, func(r *mpi.Rank) {
		obs = mpib.Measure(r, 0, mpib.MaxTiming, mpib.Options{MinReps: 1, MaxReps: 1}, func() {
			r.Scatter(mpi.Linear, 0, blocks)
		}).Mean
	})
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

// TestLMOXSurvivesDemoFaultPlan is the issue's acceptance scenario:
// under the seeded reference fault plan (a lossy link, a degraded
// link, a straggler node) the LMO estimation must complete without
// panic or deadlock, and the resulting model must predict its own
// platform's linear scatter within 2x of the fault-free model's
// prediction error on the healthy platform. The straggler and the
// persistent degradation are platform traits a robust estimator
// should capture; only the transient loss spikes are noise to reject.
func TestLMOXSurvivesDemoFaultPlan(t *testing.T) {
	const n, msg = 6, 32 << 10
	clean := homConfig(n)
	robust := Options{
		Parallel: true,
		Mpib:     mpib.Options{OutlierMAD: 3, Retries: 2, MaxReps: 40},
	}

	mClean, _, err := LMOX(clean, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}

	faulty := clean
	faulty.Faults = faults.Demo(n)
	mFaulty, rep, err := LMOX(faulty, robust)
	if err != nil {
		t.Fatalf("LMOX under the demo fault plan failed: %v", err)
	}

	// Each model predicts the platform it was estimated on.
	obsClean := observeScatterLinear(t, clean, msg)
	obsFaulty := observeScatterLinear(t, faulty, msg)
	scatter := func(x *models.LMOX) float64 {
		v, err := x.Predict(models.Query{Coll: models.CollScatter, Alg: collective.AlgLinear, N: n, M: msg})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	errClean := math.Abs(scatter(mClean)-obsClean) / obsClean
	errFaulty := math.Abs(scatter(mFaulty)-obsFaulty) / obsFaulty
	// 2x the fault-free error, with a 2% floor for when the fault-free
	// error is essentially zero.
	if limit := math.Max(2*errClean, 0.02); errFaulty > limit {
		t.Fatalf("faulty-estimation prediction error %.2f%% exceeds limit %.2f%% (fault-free %.2f%%)",
			100*errFaulty, 100*limit, 100*errClean)
	}

	if len(rep.Confidence) != n {
		t.Fatalf("Confidence has %d entries, want %d", len(rep.Confidence), n)
	}
	// Degradation accounting must be self-consistent: every dropped
	// experiment implies a non-converged measurement.
	if len(rep.Dropped) > 0 && rep.NonConverged == 0 {
		t.Fatalf("report lists %d dropped experiments but no non-converged measurements", len(rep.Dropped))
	}
	for _, d := range rep.Dropped {
		if d.Initiator < 0 || d.Initiator >= n || d.Lo >= d.Hi {
			t.Fatalf("malformed dropped-experiment record %+v", d)
		}
	}
}

// TestLMOXFaultPlanReproducible: the same seed must reproduce the
// same faults, the same measurements, the same model and the same
// degradation report.
func TestLMOXFaultPlanReproducible(t *testing.T) {
	const n = 5
	cfg := homConfig(n)
	cfg.Seed = 99
	cfg.Faults = faults.Demo(n)
	opts := Options{
		Parallel: true,
		Mpib:     mpib.Options{OutlierMAD: 3, Retries: 1, MaxReps: 30},
	}
	m1, r1, err := LMOX(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2, r2, err := LMOX(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("same seed and plan produced different models")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed and plan produced different reports:\n%+v\n%+v", r1, r2)
	}
}

// TestLMOXDropsSufferingTriplets forces non-convergence on the
// experiments crossing one badly flapping link and checks that the
// averaging drops them while still recovering sane parameters from
// the redundancy.
func TestLMOXDropsSufferingTriplets(t *testing.T) {
	const n = 5
	cfg := homConfig(n)
	// A violently lossy link makes every measurement crossing 0<->1
	// noisy far beyond the CI target; MaxRetr 1 keeps each spike a
	// single RTO so samples bounce between base and base+RTO.
	cfg.Faults = &faults.Plan{Loss: []faults.LinkLoss{
		{Src: 0, Dst: 1, Prob: 0.45, RTO: 3 * time.Millisecond, MaxRetr: 1},
		{Src: 1, Dst: 0, Prob: 0.45, RTO: 3 * time.Millisecond, MaxRetr: 1},
	}}
	// Tight rep budget and no outlier rejection: the affected
	// experiments cannot converge, so their contributions get dropped.
	m, rep, err := LMOX(cfg, Options{Parallel: true, Mpib: mpib.Options{MaxReps: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NonConverged == 0 {
		t.Fatal("flapping link produced no non-converged measurements")
	}
	if len(rep.Dropped) == 0 {
		t.Fatal("no experiments dropped despite non-convergence")
	}
	sawReduced := false
	for x := 0; x < n; x++ {
		if rep.Confidence[x] < 1 {
			sawReduced = true
		}
	}
	if !sawReduced {
		t.Fatalf("dropping happened but every Confidence entry is 1: %v", rep.Confidence)
	}
	// Processors away from the bad link must still be estimated well.
	for _, x := range []int{2, 3, 4} {
		if !relClose(m.C[x], 50e-6, 0.15) {
			t.Fatalf("C[%d] = %v, want ≈50µs despite the flapping 0<->1 link", x, m.C[x])
		}
	}
}

// TestEveryFamilyCountsItsRobustness: every family's experiments cross
// the lossy 0<->1 link of TestLMOXDropsSufferingTriplets, and every
// family's report counts the measurements that did not converge there
// and the retries they took, whichever procedure ran them (a plan of
// rounds or standalone rounds). The gather scan alone reports none: it
// times a fixed count of repetitions and keeps every sample.
func TestEveryFamilyCountsItsRobustness(t *testing.T) {
	cfg := homConfig(5)
	cfg.Faults = &faults.Plan{Loss: []faults.LinkLoss{
		{Src: 0, Dst: 1, Prob: 0.45, RTO: 3 * time.Millisecond, MaxRetr: 1},
		{Src: 1, Dst: 0, Prob: 0.45, RTO: 3 * time.Millisecond, MaxRetr: 1},
	}}
	opt := Options{Parallel: true, Mpib: mpib.Options{MaxReps: 12, Retries: 1}}
	for _, name := range Families(false) {
		_, rep, err := Family(nil, cfg, name, 0, 20, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "scan" {
			if rep.NonConverged != 0 || rep.Retries != 0 {
				t.Errorf("the scan reports %d non-converged measurements and %d retries, want none", rep.NonConverged, rep.Retries)
			}
		} else if rep.NonConverged == 0 || rep.Retries == 0 {
			t.Errorf("family %s reports %d non-converged measurements and %d retries under the lossy link, want both positive",
				name, rep.NonConverged, rep.Retries)
		}
	}
}

// TestEstimationUnderCrashPinned runs estimators into a node crash and
// pins what they report: a *mpi.CrashError, and the Report's cost,
// experiment and repetition counts at the failure. The rounds recorded
// before a crash, and the jobs' durations, must not depend on which
// rank records a round or on which ranks wait at a round's barrier.
// The figures were first measured, at a minimum of five repetitions,
// when every rank took part in every round and rank 0 recorded them
// all; they were re-measured when the minimum fell to two.
func TestEstimationUnderCrashPinned(t *testing.T) {
	fat := cluster.FromTopology(topo.FatTree(4, topo.DefaultUplink()), cluster.NodeSpec{}, cluster.LinkSpec{})
	cases := []struct {
		lmox      bool // LMOX on Table I, else LMOGrouped on FatTree(4)
		node      int
		at        time.Duration
		cost      time.Duration
		exps, rep int
	}{
		{false, 0, 100 * time.Microsecond, 0, 0, 0},
		{false, 0, 3 * time.Millisecond, 0, 8, 16},
		{false, 0, 20 * time.Millisecond, 20 * time.Millisecond, 23, 46},
		{false, 5, 100 * time.Microsecond, 0, 0, 0},
		{false, 5, 3 * time.Millisecond, 3162784 * time.Nanosecond, 24, 48},
		{false, 5, 20 * time.Millisecond, 20 * time.Millisecond, 24, 48},
		{false, 15, 100 * time.Microsecond, 0, 0, 0},
		{false, 15, 3 * time.Millisecond, 3162784 * time.Nanosecond, 44, 88},
		{false, 15, 20 * time.Millisecond, 20 * time.Millisecond, 44, 88},
		{true, 9, 50 * time.Millisecond, 0, 168, 336},
	}
	for _, c := range cases {
		plan := &faults.Plan{Crashes: []faults.Crash{{Node: c.node, At: c.at}}}
		var rep Report
		var err error
		name := "grouped"
		if c.lmox {
			name = "lmox"
			cfg := mpi.Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 1, Faults: plan}
			_, rep, err = LMOX(cfg, Options{Parallel: true})
		} else {
			cfg := groupCfg(fat)
			cfg.Faults = plan
			_, _, rep, err = LMOGrouped(cfg, Options{})
		}
		var ce *mpi.CrashError
		if !errors.As(err, &ce) {
			t.Errorf("%s, node %d crashing at %v: err = %v, want a *mpi.CrashError", name, c.node, c.at, err)
			continue
		}
		if rep.Cost != c.cost || rep.Experiments != c.exps || rep.Repetitions != c.rep {
			t.Errorf("%s, node %d crashing at %v: cost %v, %d experiments, %d repetitions; want %v, %d, %d",
				name, c.node, c.at, rep.Cost, rep.Experiments, rep.Repetitions, c.cost, c.exps, c.rep)
		}
	}
}
