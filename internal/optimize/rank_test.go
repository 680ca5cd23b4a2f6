package optimize

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/mpi"
)

// stubPredictor answers the shapes it lists, by their String, and
// fails every other query.
type stubPredictor map[string]float64

func (s stubPredictor) Name() string                      { return "stub" }
func (s stubPredictor) P2P(src, dst, m int) float64       { return 0 }
func (s stubPredictor) Capabilities() models.Capabilities { return models.Capabilities{Trees: true} }
func (s stubPredictor) Predict(q models.Query) (float64, error) {
	if t, ok := s[Shape{Alg: q.Alg, Degree: q.Degree, Segment: q.Segment}.String()]; ok {
		return t, nil
	}
	return 0, errors.New("stub: unanswerable")
}

// rankSpace is a tuner-like search space: every algorithm unsegmented
// and with 4K/16K segments, plus k-ary trees of degree 4 and 8.
func rankSpace() []Shape {
	var space []Shape
	for _, seg := range []int{0, 4 << 10, 16 << 10} {
		for _, alg := range mpi.Algorithms() {
			space = append(space, Shape{Alg: alg, Segment: seg})
		}
		for _, k := range []int{4, 8} {
			space = append(space, Shape{Alg: mpi.Binary, Degree: k, Segment: seg})
		}
	}
	return space
}

// checkRanking asserts Rank's contract on one result: every shape is
// kept, infeasible or pruned; at most k are kept, sorted by prediction,
// ties in input order; and no two kept shapes run the same collective.
func checkRanking(t *testing.T, shapes []Shape, kept []Ranked, infeasible, pruned, k, n, m int) {
	t.Helper()
	if len(kept)+infeasible+pruned != len(shapes) {
		t.Fatalf("m=%d k=%d: %d kept + %d infeasible + %d pruned != %d shapes", m, k, len(kept), infeasible, pruned, len(shapes))
	}
	if len(kept) > k {
		t.Fatalf("m=%d: kept %d shapes, want at most %d", m, len(kept), k)
	}
	for i := 1; i < len(kept); i++ {
		a, b := kept[i-1], kept[i]
		if a.PredictedS > b.PredictedS ||
			a.PredictedS == b.PredictedS && slices.Index(shapes, a.Shape) > slices.Index(shapes, b.Shape) {
			t.Fatalf("m=%d: %v (%g s) ranked before %v (%g s)", m, a.Shape, a.PredictedS, b.Shape, b.PredictedS)
		}
		for _, c := range kept[:i] {
			if sameRun(c.Shape, b.Shape, n, 0, m) {
				t.Fatalf("m=%d: kept %v and %v run the same collective", m, c.Shape, b.Shape)
			}
		}
	}
}

// Rank's contract on a hand-made ranking: the unanswerable chain is
// infeasible; binary/k=7 ties with linear and, from root 0 on 8 ranks,
// builds the same flat tree, so it is pruned; a 16 KB segment leaves an
// 8 KB block whole, so binomial+seg16384 is binomial again; and
// binomial, tied with binary, keeps its earlier input position.
func TestRankContract(t *testing.T) {
	const n, m = 8, 8 << 10
	shapes := []Shape{
		{Alg: mpi.Binomial},
		{Alg: mpi.Chain},
		{Alg: mpi.Linear},
		{Alg: mpi.Binary},
		{Alg: mpi.Binary, Degree: 7},
		{Alg: mpi.Linear, Segment: 4 << 10},
		{Alg: mpi.Binomial, Segment: 16 << 10},
	}
	p := stubPredictor{"binomial": 2, "linear": 1, "binary": 2, "binary/k=7": 1, "linear+seg4096": 1.5, "binomial+seg16384": 2}
	for _, c := range []struct {
		k              int
		want           []string
		infeas, pruned int
	}{
		{1, []string{"linear"}, 1, 5},
		{3, []string{"linear", "linear+seg4096", "binomial"}, 1, 3},
		{10, []string{"linear", "linear+seg4096", "binomial", "binary"}, 1, 2},
	} {
		kept, infeasible, pruned := Rank(p, models.CollGather, 0, n, m, shapes, c.k)
		checkRanking(t, shapes, kept, infeasible, pruned, c.k, n, m)
		var got []string
		for _, r := range kept {
			got = append(got, r.Shape.String())
		}
		if !slices.Equal(got, c.want) || infeasible != c.infeas || pruned != c.pruned {
			t.Errorf("k=%d: kept %v, %d infeasible, %d pruned; want %v, %d, %d",
				c.k, got, infeasible, pruned, c.want, c.infeas, c.pruned)
		}
	}
	// The same contract holds on a real model over a tuner-like space.
	x, space := lmoxFor(n), rankSpace()
	for _, m := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		for _, k := range []int{1, 3, 100} {
			kept, infeasible, pruned := Rank(x, models.CollScatter, 0, n, m, space, k)
			checkRanking(t, space, kept, infeasible, pruned, k, n, m)
		}
	}
}

// Rank drops duplicate shapes by comparing the shared trees of
// collective.ShapeTree: comparing a shape with the kept ones allocates
// nothing.
func TestShapeComparisonAllocatesNothing(t *testing.T) {
	space := rankSpace()
	for _, n := range []int{16, 8} {
		x := lmoxFor(n)
		for _, coll := range []models.Collective{models.CollScatter, models.CollGather} {
			for _, m := range []int{1 << 10, 4 << 10, 8 << 10, 16 << 10, 24 << 10, 32 << 10, 48 << 10, 64 << 10} {
				kept, _, _ := Rank(x, coll, 0, n, m, space, 3)
				if len(kept) != 3 {
					t.Fatalf("%d nodes, %v at %d bytes: %d survivors, want 3", n, coll, m, len(kept))
				}
				c := kept[2].Shape
				if a := testing.AllocsPerRun(10, func() {
					slices.ContainsFunc(kept[:2], func(q Ranked) bool { return sameRun(q.Shape, c, n, 0, m) })
				}); a != 0 {
					t.Errorf("%d nodes, %v at %d bytes: a shape comparison allocates %v times", n, coll, m, a)
				}
			}
		}
	}
}
