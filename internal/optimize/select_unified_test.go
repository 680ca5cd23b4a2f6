package optimize

import (
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/mpi"
)

// The unified selection must agree with a brute-force argmin over the
// predictor's own answers (first-best tie-break in candidate order).
func TestSelectAlgAmongIsArgmin(t *testing.T) {
	x := lmoxFor(8)
	for _, m := range []int{64, 8 << 10, 1 << 20} {
		for _, coll := range []models.Collective{models.CollScatter, models.CollGather, models.CollBcast, models.CollReduce} {
			alg, cost := SelectAlgAmong(x, coll, 0, 8, m, nil)
			bestAlg, bestT := mpi.Linear, math.Inf(1)
			for _, cand := range mpi.Algorithms() {
				v, err := x.Predict(models.Query{Coll: coll, Alg: cand, Root: 0, N: 8, M: m})
				if err != nil {
					continue
				}
				if v < bestT {
					bestAlg, bestT = cand, v
				}
			}
			if alg != bestAlg || cost != bestT {
				t.Fatalf("%v m=%d: select (%v, %v), brute force (%v, %v)", coll, m, alg, cost, bestAlg, bestT)
			}
		}
	}
}

// A predictor without tree capability restricts the reachable
// candidates instead of failing the selection.
func TestSelectAlgAmongSkipsUnanswerable(t *testing.T) {
	orig := models.NewLMO(8)
	for i := 0; i < 8; i++ {
		orig.C()[i] = 5e-5
		orig.T()[i] = 3e-9
		for j := 0; j < 8; j++ {
			if i != j {
				orig.Beta()[i][j] = 1e8
			}
		}
	}
	alg, cost := SelectAlgAmong(orig, models.CollScatter, 0, 8, 1<<10, nil)
	if alg != mpi.Linear && alg != mpi.Binomial {
		t.Fatalf("flat-only model picked unanswerable %v", alg)
	}
	if math.IsInf(cost, 1) {
		t.Fatal("flat-only model should still resolve linear/binomial")
	}
	// Nothing answerable: the first candidate comes back with +Inf.
	alg, cost = SelectAlgAmong(orig, models.CollBcast, 0, 8, 1<<10, []mpi.Alg{mpi.Chain, mpi.Binary})
	if alg != mpi.Chain || !math.IsInf(cost, 1) {
		t.Fatalf("unanswerable selection = (%v, %v), want (chain, +Inf)", alg, cost)
	}
}
