package autotune

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/optimize"
	"repro/internal/stats"
	"repro/internal/tuned"
)

// lmoFor hand-builds an LMO model matching the homogeneous portion of
// the simulator's defaults, with the LAM-style gather irregularity
// attached so segmented candidates are predictable.
func lmoFor(n int) *models.LMOX {
	x := models.NewLMOX(n)
	for i := 0; i < n; i++ {
		x.C[i] = 5e-5
		x.T[i] = 4e-9
		for j := 0; j < n; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	// Prob is the per-operation escalation probability eq (5) uses:
	// with the LAM profile's 0.8–5% per-flow odds compounded over 15
	// concurrent flows, a scan observes roughly 10–50% of in-region
	// gathers escalating.
	x.Gather = models.GatherEmpirical{
		M1: 4 << 10, M2: 65 << 10,
		EscModes: []stats.Mode{{Value: 0.2, Count: 7}, {Value: 0.25, Count: 3}},
		ProbLow:  0.1, ProbHigh: 0.5,
	}
	return x
}

func tuneCfg(n int) experiment.Config {
	return experiment.Config{
		Cluster: cluster.Table1().Prefix(n),
		Profile: cluster.LAM(),
		Seed:    7,
		ObsReps: 10,
	}
}

// The acceptance bar of the tuner: on the 16-node Table 1 cluster
// under the LAM profile, the chosen gather shape at a large message
// size inside the irregular region must beat the naive linear gather
// by at least 5× simulated makespan, and the closed-form top-1 must
// agree with the simulator ranking on at least 80% of cells.
func TestTuneBeatsNaiveGatherAndAgrees(t *testing.T) {
	cfg := tuneCfg(16)
	res, err := Tune(context.Background(), cfg, lmoFor(16), Options{
		MsgSizes:    TuneSizes(),
		ClusterName: "table1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agreement < 0.8 {
		t.Fatalf("closed-form/simulator agreement = %.2f, want >= 0.8", res.Agreement)
	}
	const big = 48 << 10
	var cell *Cell
	for i := range res.Cells {
		if res.Cells[i].Op == tuned.OpGather && res.Cells[i].M == big {
			cell = &res.Cells[i]
		}
	}
	if cell == nil {
		t.Fatalf("no gather cell at %d bytes", big)
	}
	naive, err := Simulate(cfg, tuned.OpGather, optimize.Shape{Alg: mpi.Linear}, big)
	if err != nil {
		t.Fatal(err)
	}
	speedup := naive / cell.Winner.SimulatedS
	if speedup < 5 {
		t.Fatalf("tuned gather at %dK: %.5fs vs naive %.5fs = %.1f×, want >= 5×",
			big>>10, cell.Winner.SimulatedS, naive, speedup)
	}
	// The Fig 7 optimization — linear gather split into sub-M1
	// segments — is in the candidate space and must itself clear the
	// bar, whether or not a tree shape edged it out.
	split, err := Simulate(cfg, tuned.OpGather, optimize.Shape{Alg: mpi.Linear, Segment: 4 << 10}, big)
	if err != nil {
		t.Fatal(err)
	}
	if naive/split < 5 {
		t.Fatalf("segmented linear gather at %dK: %.5fs vs naive %.5fs = %.1f×, want >= 5×",
			big>>10, split, naive, naive/split)
	}
	// The decision table replays the winning cells.
	rule, ok := res.Table.Lookup(tuned.OpGather, big)
	if !ok || rule.String() != cell.Winner.Candidate.String() {
		t.Fatalf("table rule at %dK = %+v, want %v", big>>10, rule, cell.Winner.Candidate)
	}
}

// The emitted table must drive a tuned.Tuner end to end: rules parse,
// ranges cover every probed size, and table-shaped collectives still
// move correct bytes.
func TestTuneTableDrivesTuner(t *testing.T) {
	const n = 8
	cfg := tuneCfg(n)
	res, err := Tune(context.Background(), cfg, lmoFor(n), Options{
		MsgSizes: []int{1 << 10, 16 << 10, 48 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := tuned.UnmarshalTable(data)
	if err != nil {
		t.Fatal(err)
	}
	tuner, err := tuned.NewFromTable(tbl, n)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 16<<10)
	}
	var rootOut [][]byte
	_, err = mpi.Run(mpi.Config{Cluster: cfg.Cluster, Profile: cfg.Profile, Seed: 3}, func(r *mpi.Rank) {
		mine := tuner.Scatter(r, 0, blocks)
		if !bytes.Equal(mine, blocks[r.Rank()]) {
			t.Errorf("rank %d: tuned scatter corrupted block", r.Rank())
		}
		out := tuner.Gather(r, 0, mine)
		if r.Rank() == 0 {
			rootOut = out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range rootOut {
		if !bytes.Equal(b, blocks[i]) {
			t.Fatalf("tuned gather corrupted block %d", i)
		}
	}
	if tuner.Stats().TableHits == 0 {
		t.Fatal("tuner never consulted the table")
	}
}

// Tuning is deterministic: the same inputs produce byte-identical
// tables whatever the campaign parallelism, pinned by a golden file.
// Run under -race -count=2 in CI's chaos job.
func TestTuneDeterministic(t *testing.T) {
	const n = 8
	cfg := tuneCfg(n)
	opt := Options{MsgSizes: []int{1 << 10, 8 << 10, 32 << 10}, ClusterName: "table1"}
	first, err := Tune(context.Background(), cfg, lmoFor(n), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = 1
	second, err := Tune(context.Background(), cfg, lmoFor(n), opt)
	if err != nil {
		t.Fatal(err)
	}
	a, err := first.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := second.Table.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("tuning is parallelism-dependent:\n%s\nvs\n%s", a, b)
	}
	golden := filepath.Join("testdata", "table1_8node.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, a, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(a, want) {
		t.Fatalf("table drifted from golden file (regenerate with UPDATE_GOLDEN=1 if intended):\n%s", a)
	}
}

// The closed-form prune must discard exactly the out-of-top-k
// candidates and keep the ranking sorted by prediction.
func TestTunePrunesToTopK(t *testing.T) {
	const n = 8
	res, err := Tune(context.Background(), tuneCfg(n), lmoFor(n), Options{
		MsgSizes: []int{8 << 10},
		TopK:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := len(DefaultCandidates(lmoFor(n)))
	for _, cell := range res.Cells {
		if len(cell.Ranked) != 2 {
			t.Fatalf("cell %s/%d kept %d candidates, want 2", cell.Op, cell.M, len(cell.Ranked))
		}
		if cell.Infeasible+cell.Pruned+len(cell.Ranked) != space {
			t.Fatalf("cell %s/%d: %d infeasible + %d pruned + %d ranked != %d candidates",
				cell.Op, cell.M, cell.Infeasible, cell.Pruned, len(cell.Ranked), space)
		}
		if cell.Ranked[0].PredictedS > cell.Ranked[1].PredictedS {
			t.Fatalf("cell %s/%d ranking unsorted", cell.Op, cell.M)
		}
		if cell.Winner.SimulatedS <= 0 || math.IsInf(cell.Winner.SimulatedS, 1) {
			t.Fatalf("cell %s/%d winner not simulated: %+v", cell.Op, cell.M, cell.Winner)
		}
	}
}

// No two survivors of a cell run the same collective, so the top-k
// validation always compares k different shapes. Two candidates run the
// same collective when their trees are equal and their segments cut
// the same pieces (0 and any segment of at least m cut none). On 8
// nodes linear and binary/k=7 and /k=8 build the same flat tree from
// root 0, and segments of 4 and 16 KB leave small blocks whole.
func TestTuneSurvivorsRunDistinctShapes(t *testing.T) {
	for _, n := range []int{16, 8} {
		res, err := Tune(context.Background(), tuneCfg(n), lmoFor(n), Options{MsgSizes: TuneSizes()})
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range res.Cells {
			pieces := func(segment int) int {
				if segment <= 0 || segment >= cell.M {
					return 0
				}
				return segment
			}
			for i, a := range cell.Ranked {
				for _, b := range cell.Ranked[:i] {
					ta := collective.ShapeTree(a.Candidate.Alg, a.Candidate.Degree, n, 0)
					tb := collective.ShapeTree(b.Candidate.Alg, b.Candidate.Degree, n, 0)
					if pieces(a.Candidate.Segment) == pieces(b.Candidate.Segment) && reflect.DeepEqual(ta, tb) {
						t.Errorf("%d nodes, %s at %d bytes: survivors %v and %v run the same collective",
							n, cell.Op, cell.M, b.Candidate, a.Candidate)
					}
				}
			}
			if len(cell.Ranked) != 3 {
				t.Errorf("%d nodes, %s at %d bytes: %d survivors, want 3", n, cell.Op, cell.M, len(cell.Ranked))
			}
		}
	}
}

// A flat-only model (no tree capability) shrinks the feasible space
// instead of failing the tune.
func TestTuneWithFlatOnlyModel(t *testing.T) {
	const n = 6
	orig := models.NewLMO(n)
	for i := 0; i < n; i++ {
		orig.C()[i] = 5e-5
		orig.T()[i] = 4e-9
		for j := 0; j < n; j++ {
			if i != j {
				orig.Beta()[i][j] = 1e8
			}
		}
	}
	res, err := Tune(context.Background(), tuneCfg(n), orig, Options{MsgSizes: []int{4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Cells {
		if cell.Infeasible == 0 {
			t.Fatalf("flat-only model should find some candidates infeasible: %+v", cell)
		}
		switch cell.Winner.Candidate.Alg {
		case mpi.Linear, mpi.Binomial:
		default:
			t.Fatalf("flat-only model picked unanswerable %v", cell.Winner.Candidate)
		}
	}
}

// A Tune whose config leaves the platform nil tunes Table I under LAM,
// the paper's setting.
func TestTuneDefaultsToTable1UnderLAM(t *testing.T) {
	res, err := Tune(context.Background(), experiment.Config{Seed: 2}, lmoFor(16), Options{MsgSizes: []int{4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	want := models.Meta{Cluster: "cluster", Nodes: 16, Profile: cluster.LAM().Name, Seed: 2, Est: "autotune"}
	if got := *res.Table.Meta; got != want {
		t.Fatalf("table meta %+v, want %+v", got, want)
	}
}

// A Tune whose config names the platform keeps it: the caller's
// cluster and profile, not Table I under LAM.
func TestTuneKeepsCallersPlatform(t *testing.T) {
	const n = 5
	cfg := experiment.Config{Cluster: cluster.Table1().Prefix(n), Profile: cluster.MPICH(), Seed: 2}
	res, err := Tune(context.Background(), cfg, lmoFor(n), Options{MsgSizes: []int{4 << 10}, ClusterName: "prefix5"})
	if err != nil {
		t.Fatal(err)
	}
	want := models.Meta{Cluster: "prefix5", Nodes: n, Profile: cluster.MPICH().Name, Seed: 2, Est: "autotune"}
	if got := *res.Table.Meta; got != want {
		t.Fatalf("table meta %+v, want %+v", got, want)
	}
}

// TestSimulateAppliesFaultPlan: Simulate runs on the configured fault
// plan. A 4× CPU straggler at the root must slow a 16 KB linear
// scatter.
func TestSimulateAppliesFaultPlan(t *testing.T) {
	clean := experiment.Config{Cluster: cluster.Table1().Prefix(8), Profile: cluster.LAM(), Seed: 1, ObsReps: 3}
	faulty := clean
	faulty.Faults = &faults.Plan{Stragglers: []faults.Straggler{{Node: 0, CPUX: 4}}}
	scatter := func(cfg experiment.Config) float64 {
		s, err := Simulate(cfg, tuned.OpScatter, optimize.Shape{Alg: mpi.Linear}, 16<<10)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if c, f := scatter(clean), scatter(faulty); f <= 1.5*c {
		t.Fatalf("Simulate: straggling root %.6f s, clean %.6f s; the fault plan did not reach the simulator", f, c)
	}
}

// A warm Simulate of a gather allocates per simulated repetition, not
// per rank or per message: on Table I under LAM, ten repetitions of a
// binomial 16 KiB gather, of which mpib.Measure simulates two and
// records the other eight as copies of the second, allocate the root's
// two result lists, the measurement's state, its per-rank durations and
// its one sample array, and Simulate's job body; the operation that
// experiment.Probe.Measure times stays on the stack. The job runs on a
// recycled world, whose gather batch lists, message headers, processes
// and rank table come back from the warm-up run.
func TestWarmSimulateGatherAllocs(t *testing.T) {
	cfg := experiment.Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 1, ObsReps: 10}
	run := func() {
		if _, err := Simulate(cfg, tuned.OpGather, optimize.Shape{Alg: mpi.Binomial}, 16<<10); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: leaves the world idle
	const want = 7
	if n := testing.AllocsPerRun(20, run); n > want {
		t.Fatalf("a warm 16-rank Simulate gather allocates %v objects, want at most %d", n, want)
	}
}

// The full experiment runner: estimation, tuning, report.
func TestExperimentRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("full estimation pipeline")
	}
	cfg := experiment.Config{Cluster: cluster.Table1().Prefix(8), Seed: 5}
	rep, res, err := Experiment(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "tune" || len(rep.Tables) == 0 || len(rep.Tables[0].Rows) < 2 {
		t.Fatalf("report malformed: %+v", rep)
	}
	if res.Table == nil || len(res.Table.Rules) == 0 {
		t.Fatal("experiment produced no decision table")
	}
	if err := res.Table.Validate(); err != nil {
		t.Fatal(err)
	}
}
