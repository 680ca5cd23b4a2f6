package models

import (
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/stats"
)

func TestModelFileRoundTrip(t *testing.T) {
	hom := &Hockney{Alpha: 1e-4, Beta: 2e-8}
	het := NewHetHockney(3)
	het.Alpha[0][1] = 1.5e-4
	het.Beta[0][1] = 3e-8
	logp := &LogP{L: 1e-4, O: 2e-5, G: 1e-5, W: 1024, P: 3}
	loggp := &LogGP{L: 1e-4, O: 2e-5, SmG: 5e-5, BigG: 1e-8, P: 3}
	g, _ := stats.NewPWLinear([]float64{0, 1024}, []float64{1e-5, 2e-5})
	o, _ := stats.NewPWLinear([]float64{0}, []float64{5e-6})
	plogp := &PLogP{L: 9e-5, OS: o, OR: o, G: g, P: 3}
	lmo := buildLMOX(3)
	lmo.Gather = GatherEmpirical{
		M1: 4096, M2: 65536,
		EscModes: []stats.Mode{{Value: 0.2, Count: 10}},
		ProbLow:  0.1, ProbHigh: 0.9,
	}

	orig := NewModelFile(hom, het, logp, loggp, plogp, lmo)
	orig.Meta = &Meta{
		Cluster: "table1", Nodes: 3, Profile: "LAM 7.1.3", Seed: 42,
		Est: "parallel", Tool: "test",
	}
	data, err := orig.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := UnmarshalModelFile(data)
	if err != nil {
		t.Fatal(err)
	}

	if mf.Meta == nil || *mf.Meta != *orig.Meta {
		t.Fatalf("meta lost in round trip: %+v", mf.Meta)
	}

	if mf.Hockney.Alpha != hom.Alpha || mf.Hockney.Beta != hom.Beta {
		t.Fatalf("hockney = %+v", mf.Hockney)
	}
	if mf.LogP.O != logp.O || mf.LogGP.BigG != loggp.BigG {
		t.Fatal("logp/loggp fields lost")
	}
	het2 := mf.GetHetHockney()
	if het2.Alpha[0][1] != 1.5e-4 || het2.Beta[0][1] != 3e-8 {
		t.Fatalf("het = %+v", het2)
	}
	p2, err := mf.GetPLogP()
	if err != nil {
		t.Fatal(err)
	}
	if p2.L != 9e-5 || p2.Gap(512) != plogp.Gap(512) {
		t.Fatal("plogp reconstruction mismatch")
	}
	l2 := mf.GetLMO()
	for m := 0; m < 3; m++ {
		if l2.P2P(0, 1, 1000*m) != lmo.P2P(0, 1, 1000*m) {
			t.Fatal("lmo p2p mismatch after round trip")
		}
	}
	if !l2.Gather.Valid() || l2.Gather.M2 != 65536 || l2.Gather.EscModes[0].Value != 0.2 {
		t.Fatalf("lmo empirical params lost: %+v", l2.Gather)
	}
	// The reconstructed model predicts collectives identically.
	gather := func(p CollectivePredictor) float64 {
		return predict(t, p, CollGather, collective.AlgLinear, 0, 3, 30<<10)
	}
	if gather(l2) != gather(lmo) {
		t.Fatal("gather prediction changed after round trip")
	}
}

func TestModelFilePartial(t *testing.T) {
	data, err := NewModelFile(nil, nil, nil, nil, nil, buildLMOX(2)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := UnmarshalModelFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Hockney != nil || mf.GetHetHockney() != nil {
		t.Fatal("absent models should stay nil")
	}
	if p, err := mf.GetPLogP(); err != nil || p != nil {
		t.Fatal("absent plogp should be nil without error")
	}
	if mf.GetLMO() == nil {
		t.Fatal("lmo lost")
	}
	if !strings.Contains(string(data), `"version": 1`) {
		t.Fatalf("version missing:\n%s", data)
	}
}

func TestUnmarshalRejectsGarbageAndWrongVersion(t *testing.T) {
	if _, err := UnmarshalModelFile([]byte("{")); err == nil {
		t.Fatal("garbage should fail")
	}

	// An incompatible version must be refused with a clear message that
	// names both versions and the way out.
	_, err := UnmarshalModelFile([]byte(`{"version": 99}`))
	if err == nil {
		t.Fatal("wrong version should fail")
	}
	for _, want := range []string{"99", "version 1", "regenerate"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("version error %q should mention %q", err, want)
		}
	}

	// A file with no version field at all (pre-envelope output) is
	// refused too, not silently accepted as version 0.
	_, err = UnmarshalModelFile([]byte(`{"hockney": {"alpha": 1, "beta": 1}}`))
	if err == nil {
		t.Fatal("missing version should fail")
	}
	if !strings.Contains(err.Error(), "no version") || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("missing-version error %q should say the field is absent and how to fix it", err)
	}
}

func TestModelFileWithoutMeta(t *testing.T) {
	// Meta is optional in the envelope: files from older runs load fine
	// and simply carry no provenance.
	data, err := NewModelFile(&Hockney{Alpha: 1, Beta: 1}, nil, nil, nil, nil, nil).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"meta"`) {
		t.Fatalf("absent meta should be omitted:\n%s", data)
	}
	mf, err := UnmarshalModelFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Meta != nil {
		t.Fatalf("meta = %+v, want nil", mf.Meta)
	}
}

// metaNodesMismatch is a file whose meta names 3 nodes and whose LMO
// covers 4: lmoserve used to preload it without error, and then answer
// every /predict for its key with the lmo row missing. It is also in
// FuzzModelFile's seed corpus.
const metaNodesMismatch = `{"version":1,"meta":{"cluster":"table1","nodes":3,"profile":"LAM 7.1.3","seed":1},"lmo":{"c":[1e-5,1e-5,1e-5,1e-5],"t":[1e-9,1e-9,1e-9,1e-9],"l":[[0,4e-5,4e-5,4e-5],[4e-5,0,4e-5,4e-5],[4e-5,4e-5,0,4e-5],[4e-5,4e-5,4e-5,0]],"beta":[[0,1e8,1e8,1e8],[1e8,0,1e8,1e8],[1e8,1e8,0,1e8],[1e8,1e8,1e8,0]]}}`

// A model file is one platform's: its per-node families and its meta,
// when that names a node count, must agree on the node count.
func TestSetRejectsDisagreeingNodeCounts(t *testing.T) {
	for _, body := range []string{
		metaNodesMismatch,
		`{"version":1,"het_hockney":{"alpha":[[0,1e-4],[1e-4,0]],"beta":[[0,1e-8],[1e-8,0]]},"lmo":{"c":[1e-5],"t":[1e-9],"l":[[0]],"beta":[[0]]}}`,
		`{"version":1,"meta":{"cluster":"table1","nodes":1,"profile":"LAM 7.1.3","seed":1},"het_hockney":{"alpha":[[0,1e-4],[1e-4,0]],"beta":[[0,1e-8],[1e-8,0]]}}`,
	} {
		mf, err := UnmarshalModelFile([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if s, err := mf.Set(); err == nil {
			t.Errorf("Set accepted %s as %+v", body, s)
		}
	}
	// One node count passes, as does a meta that names none or a file
	// without per-node families.
	for _, body := range []string{
		`{"version":1,"meta":{"cluster":"table1","nodes":2,"profile":"LAM 7.1.3","seed":1},"het_hockney":{"alpha":[[0,1e-4],[1e-4,0]],"beta":[[0,1e-8],[1e-8,0]]},"lmo":{"c":[1e-5,1e-5],"t":[1e-9,1e-9],"l":[[0,4e-5],[4e-5,0]],"beta":[[0,1e8],[1e8,0]]}}`,
		`{"version":1,"meta":{"cluster":"table1","profile":"LAM 7.1.3","seed":1},"lmo":{"c":[1e-5],"t":[1e-9],"l":[[0]],"beta":[[0]]}}`,
		`{"version":1,"meta":{"cluster":"table1","nodes":8,"profile":"LAM 7.1.3","seed":1},"hockney":{"Alpha":0.0001,"Beta":1e-08}}`,
	} {
		mf, err := UnmarshalModelFile([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mf.Set(); err != nil {
			t.Errorf("Set refused %s: %v", body, err)
		}
	}
}

// A model file whose per-node arrays disagree in length is refused
// when its models are reconstructed, instead of decoding fine and
// panicking at prediction time. The first file is one lmoserve used to
// preload without error and then answer /predict for with a panic.
func TestSetRejectsRaggedModels(t *testing.T) {
	for _, body := range []string{
		`{"version":1,"meta":{"cluster":"table1","nodes":3,"profile":"LAM 7.1.3","seed":1},"lmo":{"c":[1e-5,1e-5,1e-5],"t":[1e-9],"l":[[0]],"beta":[]}}`,
		`{"version":1,"lmo":{"c":[1e-5,1e-5],"t":[1e-9,1e-9],"l":[[0,4e-5],[4e-5]],"beta":[[0,1e8],[1e8,0]]}}`,
		`{"version":1,"lmo":{"c":[1e-5,1e-5],"t":[1e-9,1e-9],"l":[[0,4e-5],[4e-5,0]],"beta":[[0,1e8]]}}`,
		`{"version":1,"het_hockney":{"alpha":[[0,1e-4],[1e-4,0]],"beta":[[0,1e-8],[1e-8]]}}`,
		`{"version":1,"het_hockney":{"alpha":[[0,1e-4,1e-4],[1e-4,0,1e-4]],"beta":[[0,1e-8,1e-8],[1e-8,0,1e-8]]}}`,
	} {
		mf, err := UnmarshalModelFile([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if s, err := mf.Set(); err == nil {
			t.Errorf("Set accepted the ragged file %s as %+v", body, s)
		}
	}
	// Square arrays of one size pass, the empty cluster included.
	for _, body := range []string{
		`{"version":1,"lmo":{"c":[],"t":[],"l":[],"beta":[]},"het_hockney":{"alpha":[],"beta":[]}}`,
		`{"version":1,"lmo":{"c":[1e-5],"t":[1e-9],"l":[[0]],"beta":[[0]]},"het_hockney":{"alpha":[[0]],"beta":[[0]]}}`,
	} {
		mf, err := UnmarshalModelFile([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mf.Set(); err != nil {
			t.Errorf("Set refused %s: %v", body, err)
		}
	}
}
