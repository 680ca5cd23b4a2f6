package optimize

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/stats"
)

func lmoxFor(n int) *models.LMOX {
	x := models.NewLMOX(n)
	for i := 0; i < n; i++ {
		x.C[i] = 5e-5
		x.T[i] = 3e-9
		for j := 0; j < n; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	return x
}

func TestSelectScatterAlgSwitches(t *testing.T) {
	x := lmoxFor(16)
	// Small messages: binomial's log n latency wins. Large messages:
	// linear's single transfer on the critical path wins.
	linBin := []mpi.Alg{mpi.Linear, mpi.Binomial}
	if alg, _ := SelectAlgAmong(x, models.CollScatter, 0, 16, 64, linBin); alg != mpi.Binomial {
		t.Fatalf("small: %v, want binomial", alg)
	}
	if alg, _ := SelectAlgAmong(x, models.CollScatter, 0, 16, 512<<10, linBin); alg != mpi.Linear {
		t.Fatalf("large: %v, want linear", alg)
	}
}

func TestCrossoverFound(t *testing.T) {
	x := lmoxFor(16)
	var sizes []int
	for m := 1 << 10; m <= 1<<20; m *= 2 {
		sizes = append(sizes, m)
	}
	cross := Crossover(x, 0, 16, sizes)
	if cross <= 0 {
		t.Fatal("LMO should predict an algorithm crossover")
	}
	// A model with no size dependence never flips.
	flat := &models.Hockney{Alpha: 1, Beta: 0}
	if Crossover(flat, 0, 16, sizes) != -1 {
		t.Fatal("constant model cannot cross over")
	}
	if Crossover(x, 0, 16, nil) != -1 {
		t.Fatal("empty sizes should return -1")
	}
}

func TestGatherSegmentAndSplitDecision(t *testing.T) {
	g := models.GatherEmpirical{M1: 4 << 10, M2: 64 << 10}
	if GatherSegment(g) != 4<<10 {
		t.Fatalf("segment = %d", GatherSegment(g))
	}
	if GatherSegment(models.GatherEmpirical{}) != 0 {
		t.Fatal("invalid empirical params should disable splitting")
	}
	if ShouldSplitGather(g, 2<<10) || ShouldSplitGather(g, 100<<10) {
		t.Fatal("outside the region no split")
	}
	if !ShouldSplitGather(g, 30<<10) {
		t.Fatal("inside the region split")
	}
}

func testConfig(n int, prof *cluster.TCPProfile, seed int64) mpi.Config {
	return mpi.Config{
		Cluster: cluster.Homogeneous(n,
			cluster.NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
			cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8}),
		Profile: prof,
		Seed:    seed,
	}
}

func TestOptimizedGatherCorrectness(t *testing.T) {
	const n = 6
	g := models.GatherEmpirical{M1: 4 << 10, M2: 64 << 10}
	m := 30 << 10 // inside the region → will split into 8 segments
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, m)
	}
	var rootGot [][]byte
	_, err := mpi.Run(testConfig(n, cluster.LAM(), 3), func(r *mpi.Rank) {
		out := OptimizedGather(r, 0, blocks[r.Rank()], g)
		if r.Rank() == 0 {
			rootGot = out
		} else if out != nil {
			t.Errorf("non-root got data")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if !bytes.Equal(rootGot[i], blocks[i]) {
			t.Fatalf("block %d corrupted after split gather", i)
		}
	}
}

func TestOptimizedGatherAvoidsEscalations(t *testing.T) {
	const n = 8
	m := 30 << 10
	g := models.GatherEmpirical{M1: 4 << 10, M2: 64 << 10}

	run := func(optimized bool) (time.Duration, int) {
		var total time.Duration
		res, err := mpi.Run(testConfig(n, cluster.LAM(), 99), func(r *mpi.Rank) {
			block := make([]byte, m)
			for rep := 0; rep < 20; rep++ {
				r.HardSync()
				t0 := r.Now()
				if optimized {
					OptimizedGather(r, 0, block, g)
				} else {
					r.Gather(mpi.Linear, 0, block)
				}
				if r.Rank() == 0 {
					total += r.Now() - t0
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total / 20, res.Net.Escalations
	}

	native, escN := run(false)
	opt, escO := run(true)
	if escN == 0 {
		t.Fatal("native gather should escalate at 30KB under LAM")
	}
	if escO != 0 {
		t.Fatalf("optimized gather escalated %d times", escO)
	}
	if opt >= native {
		t.Fatalf("optimized gather (%v) should beat native (%v)", opt, native)
	}
	speedup := float64(native) / float64(opt)
	t.Logf("gather speedup in irregular region: %.1f× (native %v, optimized %v)", speedup, native, opt)
	if speedup < 3 {
		t.Fatalf("speedup %.1f×, want substantial (paper reports ~10×)", speedup)
	}
}

func TestOptimizedGatherPassthroughOutsideRegion(t *testing.T) {
	const n = 4
	g := models.GatherEmpirical{M1: 4 << 10, M2: 64 << 10}
	_, err := mpi.Run(testConfig(n, cluster.Ideal(), 1), func(r *mpi.Rank) {
		out := OptimizedGather(r, 0, make([]byte, 1<<10), g)
		if r.Rank() == 0 && len(out) != n {
			t.Errorf("small gather should pass through, got %d blocks", len(out))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapBinomialTreeImprovesHeterogeneous(t *testing.T) {
	const n = 16
	x := models.NewLMOX(n)
	for i := 0; i < n; i++ {
		// Alternate fast/slow processors.
		if i%2 == 0 {
			x.C[i], x.T[i] = 3e-5, 2e-9
		} else {
			x.C[i], x.T[i] = 9e-5, 8e-9
		}
		for j := 0; j < n; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	m := 16 << 10
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	naive := x.ScatterBinomial(0, n, m)
	perm, best := MapBinomialTree(x, 0, n, m)
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("mapping is not a permutation: %v", perm)
		}
		seen[p] = true
	}
	if perm[0] != 0 {
		t.Fatalf("mapping moved the root: %v", perm)
	}
	if best >= naive {
		t.Fatalf("optimized mapping (%v) should beat identity (%v)", best, naive)
	}
	t.Logf("mapping gain: %.1f%%", 100*(naive-best)/naive)
}

func TestMapBinomialTreeHomogeneousIsNeutral(t *testing.T) {
	const n = 8
	x := lmoxFor(n)
	m := 8 << 10
	_, best := MapBinomialTree(x, 0, n, m)
	base := x.ScatterBinomial(0, n, m)
	if best > base+1e-12 {
		t.Fatalf("mapping on a homogeneous cluster must not hurt: %v > %v", best, base)
	}
}

// Sanity link between the empirical parameters and the optimizer: the
// detection output of a LAM-profiled cluster drives a split that the
// escalation counters confirm (integration of estimate→optimize is in
// the experiment package; here the mode arithmetic must hold).
func TestGatherEmpiricalModesFeedOptimizer(t *testing.T) {
	g := models.GatherEmpirical{
		M1: 4 << 10, M2: 64 << 10,
		EscModes: []stats.Mode{{Value: 0.2, Count: 14}, {Value: 0.25, Count: 6}},
		ProbLow:  0.1, ProbHigh: 0.6,
	}
	if !ShouldSplitGather(g, (g.M1+g.M2)/2) {
		t.Fatal("mid region must split")
	}
	if g.MeanEscalation() <= 0.2 || g.MeanEscalation() >= 0.25 {
		t.Fatalf("mean escalation = %v", g.MeanEscalation())
	}
}

func TestOptimizedGathervCorrectAndEscalationFree(t *testing.T) {
	const n = 6
	g := models.GatherEmpirical{M1: 4 << 10, M2: 64 << 10}
	counts := []int{0, 2 << 10, 30 << 10, 50 << 10, 1 << 10, 12 << 10}
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, counts[i])
	}
	var rootGot [][]byte
	res, err := mpi.Run(testConfig(n, cluster.LAM(), 21), func(r *mpi.Rank) {
		for rep := 0; rep < 10; rep++ {
			out := OptimizedGatherv(r, 0, blocks[r.Rank()], counts, g)
			if r.Rank() == 0 {
				rootGot = out
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if !bytes.Equal(rootGot[i], blocks[i]) {
			t.Fatalf("block %d corrupted (%d bytes, want %d)", i, len(rootGot[i]), counts[i])
		}
	}
	if res.Net.Escalations != 0 {
		t.Fatalf("optimized gatherv escalated %d times", res.Net.Escalations)
	}
}

func TestOptimizedGathervPassthroughWhenSmall(t *testing.T) {
	const n = 4
	g := models.GatherEmpirical{M1: 4 << 10, M2: 64 << 10}
	counts := []int{100, 200, 300, 400}
	_, err := mpi.Run(testConfig(n, cluster.Ideal(), 1), func(r *mpi.Rank) {
		block := make([]byte, counts[r.Rank()])
		out := OptimizedGatherv(r, 0, block, counts, g)
		if r.Rank() == 0 && len(out) != n {
			t.Errorf("got %d blocks", len(out))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
