package optimize

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/collective"
	"repro/internal/models"
	"repro/internal/mpi"
)

// Shape is one way to run a collective: an algorithm family, an
// optional k-ary tree degree (0 = the family's own tree, ≥2 overrides
// it), and an optional segment size (0 = unsegmented).
type Shape struct {
	Alg     mpi.Alg `json:"alg"`
	Degree  int     `json:"degree,omitempty"`
	Segment int     `json:"segment,omitempty"`
}

// String renders the shape compactly ("linear+seg4096", "binary/k=4").
func (s Shape) String() string {
	out := s.Alg.String()
	if s.Degree >= 2 {
		out += fmt.Sprintf("/k=%d", s.Degree)
	}
	if s.Segment > 0 {
		out += fmt.Sprintf("+seg%d", s.Segment)
	}
	return out
}

// Query is the closed-form question this shape poses to a model.
func (s Shape) Query(coll models.Collective, root, n, m int) models.Query {
	return models.Query{Coll: coll, Alg: s.Alg, Root: root, N: n, M: m, Degree: s.Degree, Segment: s.Segment}
}

// Ranked is a shape with its closed-form prediction in seconds.
type Ranked struct {
	Shape      Shape
	PredictedS float64
}

// Rank is the one procedure that ranks candidate shapes by predicted
// time: the prediction-driven pruning of Estefanel & Mounié's "Fast
// Tuning". It predicts the m-byte collective on n ranks rooted at root
// under every shape, skipping (and counting as infeasible) the shapes
// the model cannot answer or answers with NaN. It sorts the rest stably
// by prediction, so ties keep the input order, and keeps at most k,
// best first. A shape that runs the same collective as a better-ranked
// one is dropped; pruned counts it with the shapes beyond the first k.
func Rank(p models.CollectivePredictor, coll models.Collective, root, n, m int, shapes []Shape, k int) (kept []Ranked, infeasible, pruned int) {
	all := make([]Ranked, 0, len(shapes))
	for _, s := range shapes {
		t, err := p.Predict(s.Query(coll, root, n, m))
		if err != nil || math.IsNaN(t) {
			infeasible++
			continue
		}
		all = append(all, Ranked{s, t})
	}
	slices.SortStableFunc(all, func(a, b Ranked) int { return cmp.Compare(a.PredictedS, b.PredictedS) })
	kept = all[:0]
	for _, r := range all {
		if len(kept) == k {
			break
		}
		if !slices.ContainsFunc(kept, func(q Ranked) bool { return sameRun(q.Shape, r.Shape, n, root, m) }) {
			kept = append(kept, r)
		}
	}
	return kept, infeasible, len(shapes) - infeasible - len(kept)
}

// sameRun reports whether shapes a and b run the same collective on n
// ranks rooted at root with m-byte blocks: the block is cut into the
// same segments (a segment of 0 or of at least m cuts none), and every
// rank sends to the same children in the same order. The trees come
// shared from collective.ShapeTree, so a comparison allocates nothing.
func sameRun(a, b Shape, n, root, m int) bool {
	cut := func(s int) int {
		if s >= m {
			return 0
		}
		return max(s, 0)
	}
	return cut(a.Segment) == cut(b.Segment) && slices.EqualFunc(
		collective.ShapeTree(a.Alg, a.Degree, n, root).Children,
		collective.ShapeTree(b.Alg, b.Degree, n, root).Children, slices.Equal[[]int])
}

// SelectAlgAmong picks the algorithm with the smallest predicted time
// for the collective among candidates (all four when candidates is
// nil): Rank over the algorithms' own shapes, keeping one. Candidates
// the predictor cannot answer (a flat-only model asked for a chain,
// say) are skipped; when nothing resolves the first candidate is
// returned with an infinite prediction. Ties keep the first candidate,
// so the result is deterministic in the candidate order.
func SelectAlgAmong(p models.CollectivePredictor, coll models.Collective, root, n, m int, candidates []mpi.Alg) (mpi.Alg, float64) {
	if len(candidates) == 0 {
		candidates = mpi.Algorithms()
	}
	shapes := make([]Shape, len(candidates))
	for i, alg := range candidates {
		shapes[i].Alg = alg
	}
	if best, _, _ := Rank(p, coll, root, n, m, shapes, 1); len(best) > 0 && !math.IsInf(best[0].PredictedS, 1) {
		return best[0].Shape.Alg, best[0].PredictedS
	}
	return candidates[0], math.Inf(1)
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
