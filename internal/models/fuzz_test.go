package models

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/collective"
)

// FuzzModelFile feeds arbitrary bytes to the model-file envelope. No
// input may panic UnmarshalModelFile, Set or a prediction at the set's
// node count, and a set that decodes must round-trip through Set.File
// and back unchanged, in memory and through JSON. The seed corpus
// under testdata/fuzz/FuzzModelFile holds a whole zoo, partial and
// empty files, the ragged files Set refuses, and a file whose meta
// names another node count than its LMO covers. Run it with
//
//	go test -run '^$' -fuzz FuzzModelFile -fuzztime 10s ./internal/models
func FuzzModelFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mf, err := UnmarshalModelFile(data)
		if err != nil {
			return
		}
		s, err := mf.Set()
		if err != nil {
			return
		}
		// The set's node count: its per-node models', else its
		// provenance's, else a small default.
		n := 4
		if mf.Meta != nil && mf.Meta.Nodes > 0 {
			n = min(mf.Meta.Nodes, 64)
		}
		if s.Het != nil {
			n = s.Het.N()
		}
		if s.LMO != nil {
			n = s.LMO.N()
		}
		for _, p := range s.Predictors() {
			if p == nil {
				continue
			}
			for _, q := range fuzzQueries(n) {
				p.Predict(q)
			}
		}
		if x := s.LMO; x != nil && x.N() > 0 {
			x.GatherLinearBand(x.N()-1, x.N(), 48<<10)
		}

		if back, err := s.File().Set(); err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("Set.File().Set() = %+v, %v; want %+v", back, err, s)
		}
		enc, err := s.File().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		again, err := UnmarshalModelFile(enc)
		if err != nil {
			t.Fatalf("a written set does not decode: %v\n%s", err, enc)
		}
		s2, err := again.Set()
		if err != nil {
			t.Fatalf("a written set does not reconstruct: %v\n%s", err, enc)
		}
		if enc2, err := s2.File().Marshal(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("a set changed on its way through JSON:\n%s\nthen\n%s", enc, enc2)
		}
	})
}

// fuzzQueries is every collective over every algorithm family at n
// ranks, from both ends of the rank range, plus a k-ary degree, an
// explicit tree and a segmented query of three pieces.
func fuzzQueries(n int) []Query {
	var qs []Query
	for _, coll := range []Collective{CollScatter, CollGather, CollBcast, CollReduce} {
		for _, alg := range collective.Algorithms() {
			for _, m := range []int{0, 1 << 10, 48 << 10, 200 << 10} {
				qs = append(qs, Query{Coll: coll, Alg: alg, Root: max(n-1, 0), N: n, M: m})
			}
			qs = append(qs, Query{Coll: coll, Alg: alg, N: n, M: 10 << 10, Segment: 4 << 10})
		}
		qs = append(qs, Query{Coll: coll, Alg: collective.AlgBinary, Degree: 3, N: n, M: 8 << 10})
		if n > 0 {
			qs = append(qs, Query{Coll: coll, Tree: collective.Chain(n, 0), N: n, M: 8 << 10})
		}
	}
	return qs
}
