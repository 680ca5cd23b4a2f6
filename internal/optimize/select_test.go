package optimize

import (
	"testing"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/stats"
)

func TestSelectAmongAllAlgorithms(t *testing.T) {
	x := lmoxFor(16)
	// Small messages: a logarithmic tree must win over flat and chain.
	alg, cost := SelectAlgAmong(x, models.CollScatter, 0, 16, 64, nil)
	if alg != mpi.Binomial && alg != mpi.Binary {
		t.Fatalf("small message picked %v", alg)
	}
	if cost <= 0 {
		t.Fatal("no predicted cost")
	}
	// Large messages: linear (single wire on the critical path) wins.
	alg, _ = SelectAlgAmong(x, models.CollScatter, 0, 16, 1<<20, nil)
	if alg != mpi.Linear {
		t.Fatalf("large message picked %v", alg)
	}
	// Restricting candidates restricts the choice.
	alg, _ = SelectAlgAmong(x, models.CollScatter, 0, 16, 1<<20, []mpi.Alg{mpi.Chain, mpi.Binary})
	if alg != mpi.Chain && alg != mpi.Binary {
		t.Fatalf("restricted selection picked %v", alg)
	}
}

func TestSelectGatherUsesEmpiricalBranch(t *testing.T) {
	x := lmoxFor(8)
	x.Gather = models.GatherEmpirical{
		M1: 4 << 10, M2: 64 << 10,
		EscModes: []stats.Mode{{Value: 0.2, Count: 1}},
		ProbLow:  0.5, ProbHigh: 0.9,
	}
	// Inside the irregular region, the expected escalation penalty makes
	// linear gather unattractive; a tree algorithm must win.
	alg, _ := SelectAlgAmong(x, models.CollGather, 0, 8, 30<<10, nil)
	if alg == mpi.Linear {
		t.Fatal("escalating linear gather should lose")
	}
}

func TestBestRootPrefersFastProcessor(t *testing.T) {
	const n = 8
	x := models.NewLMOX(n)
	for i := 0; i < n; i++ {
		x.C[i] = 5e-5
		x.T[i] = 5e-9
		for j := 0; j < n; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	// Processor 3 is much faster.
	x.C[3], x.T[3] = 1e-5, 1e-9
	root, pred := BestRoot(x, models.CollScatter, n, 32<<10)
	if root != 3 {
		t.Fatalf("best scatter root = %d, want 3", root)
	}
	if pred >= predict(t, x, models.CollScatter, mpi.Linear, n, 32<<10) {
		t.Fatal("best root should beat root 0")
	}
	if groot, _ := BestRoot(x, models.CollGather, n, 1<<10); groot != 3 {
		t.Fatalf("best gather root = %d, want 3", groot)
	}
}

// The tree predictions must order algorithm latencies sensibly on a
// homogeneous model: for tiny messages flat < binomial only on the
// sender-serialization term, chain worst.
func TestTreePredictionOrdering(t *testing.T) {
	x := lmoxFor(16)
	m := 64
	chain := predict(t, x, models.CollScatter, mpi.Chain, 16, m)
	binom := predict(t, x, models.CollScatter, mpi.Binomial, 16, m)
	if chain <= binom {
		t.Fatalf("chain (%v) should be slowest for tiny messages vs binomial (%v)", chain, binom)
	}
	// Scatter arcs carry subtree multiples of the block while bcast
	// arcs carry one block, so at equal block size the binomial scatter
	// cannot be cheaper than the binomial bcast.
	bcast := predict(t, x, models.CollBcast, mpi.Binomial, 16, m)
	if binom < bcast {
		t.Fatalf("scatter (%v) should not be cheaper than bcast (%v) at equal m", binom, bcast)
	}
}
