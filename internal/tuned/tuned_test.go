package tuned

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/stats"
)

func homCfg(n int) mpi.Config {
	return mpi.Config{
		Cluster: cluster.Homogeneous(n,
			cluster.NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
			cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8}),
		Profile: cluster.Ideal(),
		Seed:    1,
	}
}

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
	return x
}

func TestTunedScatterCorrectAndAdaptive(t *testing.T) {
	const n = 16
	tuner := New(lmoFor(n), n)
	blocksSmall := mkBlocks(n, 64)
	blocksBig := mkBlocks(n, 512<<10)
	_, err := mpi.Run(homCfg(n), func(r *mpi.Rank) {
		small := tuner.Scatter(r, 0, blocksSmall)
		if !bytes.Equal(small, blocksSmall[r.Rank()]) {
			t.Errorf("rank %d small block corrupted", r.Rank())
		}
		big := tuner.Scatter(r, 0, blocksBig)
		if !bytes.Equal(big, blocksBig[r.Rank()]) {
			t.Errorf("rank %d big block corrupted", r.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := tuner.Stats()
	if st.ScatterCalls != 2*n { // every rank counts its call
		t.Fatalf("scatter calls = %d", st.ScatterCalls)
	}
	// Small messages and large messages should use different algorithms
	// on a homogeneous 16-node cluster.
	if len(st.ByAlg) < 2 {
		t.Fatalf("tuner never adapted: %v", st.ByAlg)
	}
	if st.ByAlg["linear"] == 0 {
		t.Fatalf("large scatter should use linear: %v", st.ByAlg)
	}
}

func TestTunedGatherSplitsInIrregularRegion(t *testing.T) {
	const n = 8
	cfg := homCfg(n)
	cfg.Profile = cluster.LAM()
	cfg.Seed = 11
	lmo := lmoFor(n)
	lmo.Gather = models.GatherEmpirical{
		M1: 4 << 10, M2: 64 << 10,
		EscModes: []stats.Mode{{Value: 0.2, Count: 1}},
		ProbLow:  0.1, ProbHigh: 0.5,
	}
	tuner := New(lmo, n)
	var rootOut [][]byte
	res, err := mpi.Run(cfg, func(r *mpi.Rank) {
		block := bytes.Repeat([]byte{byte(r.Rank() + 1)}, 30<<10)
		for rep := 0; rep < 10; rep++ {
			out := tuner.Gather(r, 0, block)
			if r.Rank() == 0 {
				rootOut = out
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range rootOut {
		want := bytes.Repeat([]byte{byte(i + 1)}, 30<<10)
		if !bytes.Equal(b, want) {
			t.Fatalf("block %d corrupted", i)
		}
	}
	if res.Net.Escalations != 0 {
		t.Fatalf("tuned gather escalated %d times; splitting should prevent it", res.Net.Escalations)
	}
	if tuner.Stats().Splits == 0 {
		t.Fatal("tuner never split")
	}
}

func TestTunedGatherPassesThroughOutsideRegion(t *testing.T) {
	const n = 4
	tuner := New(lmoFor(n), n) // no empirical params → no splitting
	_, err := mpi.Run(homCfg(n), func(r *mpi.Rank) {
		out := tuner.Gather(r, 0, make([]byte, 1<<10))
		if r.Rank() == 0 && len(out) != n {
			t.Errorf("gather returned %d blocks", len(out))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuner.Stats().Splits != 0 {
		t.Fatal("unexpected split")
	}
}

func TestDecisionCache(t *testing.T) {
	const n = 8
	tuner := New(lmoFor(n), n)
	_, err := mpi.Run(homCfg(n), func(r *mpi.Rank) {
		blocks := mkBlocks(n, 1000)
		for i := 0; i < 5; i++ {
			tuner.Scatter(r, 0, blocks)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := tuner.Stats()
	// 5 calls × 8 ranks = 40 decisions; all but the first hit the cache.
	if st.CacheHits < 35 {
		t.Fatalf("cache hits = %d, want ≥ 35", st.CacheHits)
	}
}

func TestTunerSizeMismatchPanics(t *testing.T) {
	tuner := New(lmoFor(4), 4)
	_, err := mpi.Run(homCfg(5), func(r *mpi.Rank) {
		tuner.Scatter(r, 0, mkBlocks(5, 10))
	})
	if err == nil {
		t.Fatal("rank-count mismatch should fail the job")
	}
}

func TestProportionalCounts(t *testing.T) {
	n := 4
	x := lmoFor(n)
	// Processor 0 twice as fast per byte as the others.
	x.T[0] = 2e-9
	counts := ProportionalCounts(x, 10000, 1)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Fatalf("counts sum to %d", total)
	}
	if counts[0] <= counts[1] {
		t.Fatalf("fast processor should get more: %v", counts)
	}
	// Roughly 2:1 ratio.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("ratio = %v, want ≈2", ratio)
	}
	// minPer respected even for very slow processors.
	x.T[3] = 1e-3
	counts = ProportionalCounts(x, 1000, 5)
	if counts[3] < 5 {
		t.Fatalf("minPer violated: %v", counts)
	}
}

func TestProportionalCountsFeedScatterv(t *testing.T) {
	const n = 4
	x := lmoFor(n)
	x.T[0] = 1e-9
	counts := ProportionalCounts(x, 8192, 1)
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, counts[i])
	}
	_, err := mpi.Run(homCfg(n), func(r *mpi.Rank) {
		mine := r.Scatterv(mpi.Linear, 0, blocks, counts)
		if len(mine) != counts[r.Rank()] {
			t.Errorf("rank %d got %d bytes, want %d", r.Rank(), len(mine), counts[r.Rank()])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mkBlocks(n, bs int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, bs)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		out[i] = b
	}
	return out
}

// A table-driven tuner must execute the rule's full candidate shape —
// algorithm, degree, segment — and still deliver correct data, while
// sizes no rule covers fall back to linear.
func TestTunerFollowsDecisionTable(t *testing.T) {
	const n = 8
	tbl := &Table{
		Root: 0,
		Rules: []Rule{
			{Op: OpScatter, MinBytes: 0, MaxBytes: 1 << 10, Alg: "binomial"},
			{Op: OpScatter, MinBytes: 1 << 10, MaxBytes: 0, Alg: "binary", Degree: 4, Segment: 2 << 10},
			{Op: OpGather, MinBytes: 0, MaxBytes: 32 << 10, Alg: "linear", Segment: 2 << 10},
			// No gather rule above 32K: falls back to linear.
		},
	}
	tuner, err := NewFromTable(tbl, n)
	if err != nil {
		t.Fatal(err)
	}
	blocks := mkBlocks(n, 8<<10)
	var rootOut [][]byte
	_, err = mpi.Run(homCfg(n), func(r *mpi.Rank) {
		mine := tuner.Scatter(r, 0, blocks)
		if !bytes.Equal(mine, blocks[r.Rank()]) {
			t.Errorf("rank %d: table-shaped scatter corrupted block", r.Rank())
		}
		out := tuner.Gather(r, 0, mine)
		if r.Rank() == 0 {
			rootOut = out
		}
		tuner.Gather(r, 0, make([]byte, 64<<10)) // uncovered size
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range rootOut {
		if !bytes.Equal(b, blocks[i]) {
			t.Fatalf("table-shaped gather corrupted block %d", i)
		}
	}
	st := tuner.Stats()
	if st.TableHits != 2*n { // scatter + in-range gather, per rank
		t.Fatalf("table hits = %d, want %d", st.TableHits, 2*n)
	}
	if st.ByAlg["binary/k=4+seg2048"] != n {
		t.Fatalf("scatter rule label missing: %v", st.ByAlg)
	}
	if st.ByAlg["linear+seg2048"] != n {
		t.Fatalf("gather rule label missing: %v", st.ByAlg)
	}
	if st.Splits != n {
		t.Fatalf("splits = %d, want %d (segmented in-range gathers)", st.Splits, n)
	}
}

// Integration: a tuner fed by an actual estimation on the simulated
// cluster must behave identically to one fed ground-truth-like params.
func TestTunerFromEstimatedModel(t *testing.T) {
	cfg := mpi.Config{Cluster: cluster.Table1().Prefix(6), Profile: cluster.Ideal(), Seed: 1}
	lmo, _, err := estimate.LMOX(cfg, estimate.Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	tuner := New(lmo, 6)
	_, err = mpi.Run(cfg, func(r *mpi.Rank) {
		out := tuner.Gather(r, 0, []byte{byte(r.Rank())})
		if r.Rank() == 0 {
			for i := range out {
				if out[i][0] != byte(i) {
					t.Errorf("block %d corrupted", i)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Decisions are pure functions of the call, not of the call order: the
// model's scatter crossover on 16 ranks lies between 1 100 and 1 900
// bytes, and each size runs its own algorithm whichever comes first.
func TestDecisionsIndependentOfCallOrder(t *testing.T) {
	const n = 16
	want := map[int]string{1100: "binomial", 1900: "linear"}
	for _, order := range [][]int{{1100, 1900}, {1900, 1100}} {
		tuner := New(lmoFor(n), n)
		for _, m := range order {
			before := tuner.Stats().ByAlg[want[m]]
			if _, err := mpi.Run(homCfg(n), func(r *mpi.Rank) { tuner.Scatter(r, 0, mkBlocks(n, m)) }); err != nil {
				t.Fatal(err)
			}
			if got := tuner.Stats().ByAlg[want[m]] - before; got != n {
				t.Errorf("order %v: %d of %d ranks ran the %d-byte scatter %s (stats %v)",
					order, got, n, m, want[m], tuner.Stats().ByAlg)
			}
		}
	}
}

// A table decides for the root it was tuned at: a call at another root
// fails the job with an error naming both roots, and no rule runs.
func TestTableRootMismatchFailsJob(t *testing.T) {
	const n = 8
	tbl := &Table{Root: 0, Rules: []Rule{{Op: OpScatter, Alg: "binary", Degree: 4, Segment: 1024}}}
	tuner, err := NewFromTable(tbl, n)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mpi.Run(homCfg(n), func(r *mpi.Rank) { tuner.Scatter(r, 3, mkBlocks(n, 4<<10)) })
	if err == nil || !strings.Contains(err.Error(), "root 0") || !strings.Contains(err.Error(), "root 3") {
		t.Fatalf("scatter at root 3 from a root-0 table: err = %v, want one naming both roots", err)
	}
	if hits := tuner.Stats().TableHits; hits != 0 {
		t.Fatalf("a root-0 rule ran %d times at root 3", hits)
	}
}

// The model-driven gather splits exactly on the open irregular region
// (M1, M2), decided at the exact call size. A table could not keep
// this: one tuned at TuneSizes decides 4.5 KB at its 4 KB probe.
func TestTunedGatherSplitsOnOpenRegion(t *testing.T) {
	const n = 8
	lmo := lmoFor(n)
	lmo.Gather = models.GatherEmpirical{
		M1: 4 << 10, M2: 64 << 10,
		EscModes: []stats.Mode{{Value: 0.2, Count: 1}},
		ProbLow:  0.1, ProbHigh: 0.5,
	}
	g := lmo.Gather
	tuner := New(lmo, n)
	for _, c := range []struct {
		m     int
		split bool
	}{{g.M1, false}, {g.M1 + 1, true}, {g.M2 - 1, true}, {g.M2, false}} {
		before := tuner.Stats()
		if _, err := mpi.Run(homCfg(n), func(r *mpi.Rank) { tuner.Gather(r, 0, make([]byte, c.m)) }); err != nil {
			t.Fatal(err)
		}
		after := tuner.Stats()
		want := 0
		if c.split {
			want = n
		}
		splits := after.Splits - before.Splits
		segmented := after.ByAlg["linear+seg4096"] - before.ByAlg["linear+seg4096"]
		if splits != want || segmented != want {
			t.Errorf("%d-byte gather: %d splits, %d linear+seg4096 runs, want %d each (stats %v)",
				c.m, splits, segmented, want, after.ByAlg)
		}
	}
}
