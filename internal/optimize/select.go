package optimize

import (
	"math"

	"repro/internal/models"
	"repro/internal/mpi"
)

// SelectAlgAmong picks the algorithm with the smallest predicted time
// for the collective among candidates (all four when candidates is
// nil) on the unified predictor interface. Candidates the predictor
// cannot answer (a flat-only model asked for a chain, say) are
// skipped; when nothing resolves the first candidate is returned with
// an infinite prediction. Ties keep the first candidate, so the
// result is deterministic in the candidate order.
func SelectAlgAmong(p models.CollectivePredictor, coll models.Collective, root, n, m int, candidates []mpi.Alg) (mpi.Alg, float64) {
	if len(candidates) == 0 {
		candidates = mpi.Algorithms()
	}
	best := candidates[0]
	bestT := math.Inf(1)
	for _, alg := range candidates {
		t, err := p.Predict(models.Query{Coll: coll, Alg: alg, Root: root, N: n, M: m})
		if err != nil {
			continue
		}
		if t < bestT {
			best, bestT = alg, t
		}
	}
	return best, bestT
}

// BestRoot returns the root rank minimizing the predicted time of the
// linear (flat-tree) collective — on a heterogeneous cluster the root
// pays (n-1)(C_r + M·t_r), so rooting the operation at a fast
// processor matters (the HeteroMPI-style optimization of [10]).
func BestRoot(p models.CollectivePredictor, coll models.Collective, n, m int) (root int, predicted float64) {
	root, predicted = 0, math.Inf(1)
	for r := 0; r < n; r++ {
		t, err := p.Predict(models.Query{Coll: coll, Alg: mpi.Linear, Root: r, N: n, M: m})
		if err != nil {
			continue
		}
		if t < predicted {
			root, predicted = r, t
		}
	}
	return root, predicted
}
