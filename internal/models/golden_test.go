package models

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/collective"
)

// -update regenerates testdata/predict.golden from the current models:
//
//	go test ./internal/models -run TestPredictGolden -update
var update = flag.Bool("update", false, "rewrite testdata/predict.golden")

// TestPredictGolden pins every prediction of the test zoo bit for bit:
// each model answers the four collectives over the four algorithm
// families, a k-ary degree, a segmented query and an explicit tree, at
// block sizes on both sides of the zoo LMO's M1 (4 KB) and M2 (64 KB).
// Errors are pinned by their text.
func TestPredictGolden(t *testing.T) {
	const n, root = 8, 2
	sizes := []int{1 << 10, 4 << 10, 6 << 10, 48 << 10, 64 << 10, 100 << 10}
	shapes := []struct {
		name string
		q    Query
	}{
		{"linear", Query{Alg: collective.AlgLinear}},
		{"binomial", Query{Alg: collective.AlgBinomial}},
		{"binary", Query{Alg: collective.AlgBinary}},
		{"chain", Query{Alg: collective.AlgChain}},
		{"k=4", Query{Alg: collective.AlgBinary, Degree: 4}},
		{"linear+seg3K", Query{Alg: collective.AlgLinear, Segment: 3 << 10}},
		{"tree=3-ary", Query{Tree: collective.KAry(n, root, 3)}},
	}
	// Invalid queries, one per check and one failing two, so that the
	// order of the checks shows too.
	invalid := []Query{
		{N: n - 1},
		{N: n, Root: n},
		{N: n, M: -1},
		{N: n - 1, Root: n},
		{N: n, Alg: collective.AlgBinary, Degree: 1},
		{N: n, Tree: collective.KAry(n-1, 0, 3)},
	}
	var b strings.Builder
	render := func(p CollectivePredictor, q Query) {
		if v, err := p.Predict(q); err != nil {
			fmt.Fprintf(&b, " [%v]", err)
		} else {
			b.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	for _, p := range zoo(n) {
		for _, coll := range []Collective{CollScatter, CollGather, CollBcast, CollReduce} {
			for _, s := range shapes {
				fmt.Fprintf(&b, "%s %v %s:", p.Name(), coll, s.name)
				for _, m := range sizes {
					q := s.q
					q.Coll, q.Root, q.N, q.M = coll, root, n, m
					render(p, q)
				}
				b.WriteByte('\n')
			}
		}
		fmt.Fprintf(&b, "%s invalid:", p.Name())
		for _, q := range invalid {
			render(p, q)
		}
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "predict.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if b.String() == string(want) {
		return
	}
	got, exp := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("%s line %d:\nwant %s\ngot  %s", path, i+1, exp[i], got[i])
		}
	}
	t.Fatalf("%s: rendered %d lines, golden has %d", path, len(got), len(exp))
}
