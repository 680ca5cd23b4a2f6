package models

import (
	"math"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/stats"
)

// zoo builds one instance of every model in the zoo for n processors,
// with an LMO irregularity region so the empirical gather branch is
// exercised.
func zoo(n int) []CollectivePredictor {
	g, _ := stats.NewPWLinear([]float64{0, 1 << 16}, []float64{1e-5, 1e-3})
	o, _ := stats.NewPWLinear([]float64{0}, []float64{5e-6})
	het := NewHetHockney(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				het.Alpha[i][j] = 1e-4 + 1e-6*float64(i+j)
				het.Beta[i][j] = 1e-8
			}
		}
	}
	x := buildLMOX(n)
	x.Gather = GatherEmpirical{M1: 4 << 10, M2: 64 << 10,
		EscModes: []stats.Mode{{Value: 0.05, Count: 3}}, ProbLow: 0.1, ProbHigh: 0.8}
	orig := NewLMO(n)
	for i := 0; i < n; i++ {
		orig.C()[i] = 5e-5
		orig.T()[i] = 3e-9
		for j := 0; j < n; j++ {
			if i != j {
				orig.Beta()[i][j] = 1e8
			}
		}
	}
	orig.inner.Gather = GatherEmpirical{M1: 4 << 10, M2: 64 << 10,
		EscModes: []stats.Mode{{Value: 0.05, Count: 3}}, ProbLow: 0.1, ProbHigh: 0.8}
	return []CollectivePredictor{
		&Hockney{Alpha: 1e-4, Beta: 1e-8},
		het,
		&LogP{L: 1e-4, O: 1e-5, G: 1e-5, W: 1024, P: n},
		&LogGP{L: 1e-4, O: 1e-5, SmG: 5e-5, BigG: 1e-8, P: n},
		&PLogP{L: 1e-4, OS: o, OR: o, G: g, P: n},
		x,
		orig,
	}
}

// A k-ary degree must answer exactly like the explicit KAry tree, for
// every collective and every model that predicts trees.
func TestPredictTreeAndDegreeForms(t *testing.T) {
	const n, root, m = 8, 0, 16 << 10
	tree := collective.KAry(n, root, 4)
	for _, p := range zoo(n) {
		if !p.Capabilities().Trees {
			continue
		}
		for _, coll := range []Collective{CollScatter, CollGather, CollBcast, CollReduce} {
			got, err := p.Predict(Query{Coll: coll, Alg: collective.AlgBinary, Degree: 4, Root: root, N: n, M: m})
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Predict(Query{Coll: coll, Tree: tree, Root: root, N: n, M: m})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: degree-4 %v = %v, explicit KAry tree = %v", p.Name(), coll, got, want)
			}
		}
	}
}

// Segmented queries charge the pipelined series of their pieces: each
// piece's serialized root slots add, the overlapped remote tail lands
// on the critical path once — the cost shape of the optimizer's
// segmented gather.
func TestPredictSegmentedSumsPieces(t *testing.T) {
	const n, root = 8, 0
	x := buildLMOX(n)
	x.Gather = GatherEmpirical{M1: 4 << 10, M2: 64 << 10,
		EscModes: []stats.Mode{{Value: 0.05, Count: 1}}, ProbLow: 0.2, ProbHigh: 0.9}
	m, seg := 10<<10, 4<<10
	got, err := x.Predict(Query{Coll: CollGather, Alg: collective.AlgLinear, Root: root, N: n, M: m, Segment: seg})
	if err != nil {
		t.Fatal(err)
	}
	// Two full segments and a 2K remainder: sum of the pieces minus the
	// two tails that overlap the next piece's processing.
	piece := func(b int) float64 { return predict(t, x, CollGather, collective.AlgLinear, root, n, b) }
	sum := 2*piece(seg) + piece(m-2*seg)
	want := sum - x.maxRemote(root, seg) - x.maxRemote(root, m-2*seg)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("segmented gather = %v, pipelined pieces = %v", got, want)
	}
	if got >= sum {
		t.Fatalf("pipelined segments %v should undercut back-to-back whole ops %v", got, sum)
	}
	// Splitting must dodge the irregular region: the segmented series of
	// sub-M1 gathers beats the unsegmented mid-region prediction when the
	// escalation cost dominates.
	whole, _ := x.Predict(Query{Coll: CollGather, Alg: collective.AlgLinear, Root: root, N: n, M: 48 << 10})
	split, _ := x.Predict(Query{Coll: CollGather, Alg: collective.AlgLinear, Root: root, N: n, M: 48 << 10, Segment: x.Gather.M1})
	if split >= whole {
		t.Fatalf("sub-M1 segmentation should beat the irregular region: split %v, whole %v", split, whole)
	}
	// Offsets near the top of the int range must not wrap around into
	// an endless piece loop: these split into two pieces each.
	for _, q := range []Query{
		{Coll: CollGather, Alg: collective.AlgLinear, Root: root, N: n, M: math.MaxInt, Segment: 1 << 62},
		{Coll: CollBcast, Alg: collective.AlgBinomial, Root: root, N: n, M: math.MaxInt, Segment: 1 << 62},
	} {
		if _, err := x.Predict(q); err != nil {
			t.Fatalf("Predict(%+v): %v", q, err)
		}
	}
	// Segment >= M is a no-op.
	a, _ := x.Predict(Query{Coll: CollScatter, Alg: collective.AlgLinear, Root: root, N: n, M: 1 << 10, Segment: 1 << 20})
	b, _ := x.Predict(Query{Coll: CollScatter, Alg: collective.AlgLinear, Root: root, N: n, M: 1 << 10})
	if a != b {
		t.Fatalf("oversized segment changed the prediction: %v vs %v", a, b)
	}
}

// Invalid queries and out-of-capability queries fail with errors, not
// panics or garbage.
func TestPredictRejectsInvalidQueries(t *testing.T) {
	x := buildLMOX(8)
	bad := []Query{
		{Coll: CollScatter, N: 0},
		{Coll: CollScatter, N: 8, Root: 8},
		{Coll: CollScatter, N: 8, M: -1},
		{Coll: CollScatter, N: 8, Segment: -1},
		{Coll: Collective(99), N: 8},
		{Coll: CollScatter, N: 8, Degree: 1, Alg: collective.AlgBinary},
		{Coll: CollScatter, N: 8, Degree: 3, Alg: collective.AlgChain},
		{Coll: CollScatter, N: 4}, // wrong N for a per-node model
		{Coll: CollScatter, N: 8, Tree: collective.Binomial(4, 0)},
	}
	for _, q := range bad {
		if _, err := x.Predict(q); err == nil {
			t.Fatalf("Predict(%+v) should fail", q)
		}
	}
	// The original five-parameter model has no tree capability.
	orig := NewLMO(8)
	if _, err := orig.Predict(Query{Coll: CollScatter, Alg: collective.AlgBinary, N: 8}); err == nil {
		t.Fatal("LMO-orig should reject binary-tree queries")
	}
	if _, err := orig.Predict(Query{Coll: CollBcast, Alg: collective.AlgLinear, N: 8}); err == nil {
		t.Fatal("LMO-orig should reject bcast queries")
	}
	if _, err := orig.Predict(Query{Coll: CollGather, Alg: collective.AlgLinear, N: 8, M: 1 << 10}); err != nil {
		t.Fatalf("LMO-orig linear gather should work: %v", err)
	}
}

// Capabilities must agree with what Predict actually answers.
func TestCapabilitiesMatchBehavior(t *testing.T) {
	for _, p := range zoo(8) {
		caps := p.Capabilities()
		_, err := p.Predict(Query{Coll: CollScatter, Alg: collective.AlgChain, Root: 0, N: 8, M: 1024})
		if caps.Trees && err != nil {
			t.Fatalf("%s claims Trees but chain scatter failed: %v", p.Name(), err)
		}
		if !caps.Trees && err == nil {
			t.Fatalf("%s denies Trees but answered a chain scatter", p.Name())
		}
		if !caps.PerNode {
			continue
		}
		// Per-node parameters pin predictions to the estimated size: a
		// smaller job must fail with an error, never panic.
		for _, coll := range []Collective{CollScatter, CollGather, CollBcast, CollReduce} {
			for _, alg := range collective.Algorithms() {
				q := Query{Coll: coll, Alg: alg, Root: 0, N: 7, M: 1024}
				if _, err := predictNoPanic(t, p, q); err == nil {
					t.Fatalf("%s is PerNode but answered an N-1 %v %v query", p.Name(), alg, coll)
				}
			}
		}
	}
	x := buildLMOX(8)
	if x.Capabilities().Irregular {
		t.Fatal("LMOX without empirical gather params must not claim Irregular")
	}
	x.Gather = GatherEmpirical{M1: 1 << 10, M2: 1 << 16}
	if !x.Capabilities().Irregular {
		t.Fatal("LMOX with empirical gather params must claim Irregular")
	}
}

// predictNoPanic runs p.Predict(q), failing the test if it panics.
func predictNoPanic(t *testing.T, p CollectivePredictor, q Query) (v float64, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Predict(%+v) panicked: %v", p.Name(), q, r)
		}
	}()
	return p.Predict(q)
}

// The collective and algorithm vocabularies round-trip through their
// string forms.
func TestVocabularyRoundTrip(t *testing.T) {
	for _, c := range []Collective{CollScatter, CollGather, CollBcast, CollReduce} {
		got, err := ParseCollective(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCollective(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCollective("allgather"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("ParseCollective should reject unknown ops, got %v", err)
	}
	for _, a := range collective.Algorithms() {
		got, err := collective.ParseAlg(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlg(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := collective.ParseAlg("ring"); err == nil {
		t.Fatal("ParseAlg should reject unknown algorithms")
	}
}
