package commperf

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func testSystem() *System {
	cl := Homogeneous(4,
		NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
		LinkSpec{L: 40 * time.Microsecond, Beta: 1e8})
	return NewSystem(cl, Ideal(), 1)
}

func TestSystemRunAndMeasure(t *testing.T) {
	sys := testSystem()
	var m Measurement
	res, err := sys.Run(func(r *Rank) {
		got := MeasureMakespan(r, func() {
			blocks := make([][]byte, r.Size())
			for i := range blocks {
				blocks[i] = make([]byte, 1024)
			}
			r.Scatter(Linear, 0, blocks)
		}, WithReps(3, 3))
		if r.Rank() == 0 {
			m = got
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean <= 0 || m.N != 3 {
		t.Fatalf("measurement = %+v", m)
	}
	if res.Net.Messages == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestSystemEstimateAndPredict(t *testing.T) {
	sys := testSystem()
	est, err := sys.Estimate(ModelLMO)
	if err != nil {
		t.Fatal(err)
	}
	lmo, rep := est.LMO, est.Report
	if rep.Cost <= 0 || rep.Experiments == 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Prediction close to observation for a clean linear scatter.
	const m = 16 << 10
	var observed float64
	_, err = sys.Run(func(r *Rank) {
		got := MeasureMakespan(r, func() {
			blocks := make([][]byte, r.Size())
			for i := range blocks {
				blocks[i] = make([]byte, m)
			}
			r.Scatter(Linear, 0, blocks)
		}, WithReps(5, 5))
		observed = got.Mean
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := lmo.ScatterLinear(0, 4, m)
	if pred <= 0 {
		t.Fatal("no prediction")
	}
	rel := (pred - observed) / observed
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.1 {
		t.Fatalf("LMO prediction %v vs observed %v (rel err %.1f%%)", pred, observed, 100*rel)
	}
}

func TestSystemEstimatorsRun(t *testing.T) {
	sys := testSystem()
	for _, kind := range []ModelKind{ModelHetHockney, ModelHockney, ModelLogP, ModelPLogP} {
		if _, err := sys.Estimate(kind); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	g, _, err := sys.DetectGatherIrregularity(0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Valid() {
		t.Fatal("ideal system must be regular")
	}
}

func TestSystemExperimentDispatch(t *testing.T) {
	sys := NewSystem(Table1(), LAM(), 1)
	rep, err := sys.Experiment("fig2") // cheap, no estimation
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig2" {
		t.Fatalf("id = %s", rep.ID)
	}
	var buf bytes.Buffer
	RenderReport(&buf, rep)
	if !strings.Contains(buf.String(), "binomial") {
		t.Fatal("render missing content")
	}
	if _, err := sys.Experiment("nope"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestExperimentRunnersExposed(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range ExperimentRunners() {
		ids[r.ID] = true
	}
	for _, want := range []string{"table1", "fig1", "fig2", "fig3", "table2", "fig4", "fig5", "fig6", "fig7", "estcost", "irreg"} {
		if !ids[want] {
			t.Fatalf("missing runner %s", want)
		}
	}
	if LookupExperiment("fig1") == nil {
		t.Fatal("lookup failed")
	}
}

func TestOptimizationHelpersExposed(t *testing.T) {
	// Homogeneous 16 nodes: binomial wins small messages on latency,
	// linear wins large ones (single transfer on the critical path).
	// (On Table1 the slow Opteron/Celeron sit on the binomial chain and
	// linear wins everywhere — heterogeneity changes the answer, which
	// is the paper's point.)
	cl := Homogeneous(16,
		NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
		LinkSpec{L: 40 * time.Microsecond, Beta: 1e8})
	sys := NewSystem(cl, Ideal(), 1)
	est, err := sys.Estimate(ModelLMO)
	if err != nil {
		t.Fatal(err)
	}
	lmo := est.LMO
	n := sys.Cluster().N()
	linBin := []Alg{Linear, Binomial}
	small, _ := SelectAlgAmong(lmo, CollScatter, 0, n, 64, linBin)
	big, _ := SelectAlgAmong(lmo, CollScatter, 0, n, 1<<20, linBin)
	if small != Binomial || big != Linear {
		t.Fatalf("alg selection: small=%v big=%v", small, big)
	}
	var sizes []int
	for m := 1 << 10; m <= 1<<20; m *= 2 {
		sizes = append(sizes, m)
	}
	if AlgCrossover(lmo, 0, n, sizes) <= 0 {
		t.Fatal("crossover not found")
	}
	perm, cost := MapBinomialTree(lmo, 0, n, 32<<10)
	if len(perm) != n || cost <= 0 {
		t.Fatalf("mapping perm=%v cost=%v", perm, cost)
	}
}

func TestTableIClusterExposed(t *testing.T) {
	cl := Table1()
	if cl.N() != 16 {
		t.Fatalf("n = %d", cl.N())
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if LAM().M1 != 4<<10 || MPICH().M2 != 125<<10 {
		t.Fatal("profiles changed")
	}
}

func TestTunerThroughFacade(t *testing.T) {
	cl := Homogeneous(8,
		NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
		LinkSpec{L: 40 * time.Microsecond, Beta: 1e8})
	sys := NewSystem(cl, LAM(), 5)
	est, err := sys.Estimate(ModelLMO)
	if err != nil {
		t.Fatal(err)
	}
	lmo := est.LMO
	tuner := NewTuner(lmo, 8)
	res, err := sys.Run(func(r *Rank) {
		// Medium gather: the tuner must split (irregular region known
		// from the estimation) and avoid escalations.
		block := make([]byte, 30<<10)
		for i := 0; i < 5; i++ {
			tuner.Gather(r, 0, block)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lmo.Gather.Valid() {
		t.Fatal("estimation should have detected the irregular region")
	}
	if res.Net.Escalations != 0 {
		t.Fatalf("tuned gather escalated %d times", res.Net.Escalations)
	}
	if tuner.Stats().Splits == 0 {
		t.Fatal("tuner never split")
	}
}

func TestModelFileThroughFacade(t *testing.T) {
	sys := testSystem()
	est, err := sys.Estimate(ModelLMO)
	if err != nil {
		t.Fatal(err)
	}
	lmo := est.LMO
	data, err := NewModelFile(nil, nil, nil, nil, nil, lmo).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mf, err := UnmarshalModelFile(data)
	if err != nil {
		t.Fatal(err)
	}
	back := mf.GetLMO()
	if back.P2P(0, 1, 1<<14) != lmo.P2P(0, 1, 1<<14) {
		t.Fatal("model changed through serialization")
	}
}

func TestScattervThroughFacade(t *testing.T) {
	sys := testSystem()
	counts := []int{10, 20, 0, 5}
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, counts[i])
	}
	_, err := sys.Run(func(r *Rank) {
		mine := r.Scatterv(Linear, 0, blocks, counts)
		if len(mine) != counts[r.Rank()] {
			t.Errorf("rank %d got %d bytes", r.Rank(), len(mine))
		}
		r.Gatherv(Linear, 0, mine, counts)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommThroughFacade(t *testing.T) {
	sys := testSystem()
	_, err := sys.Run(func(r *Rank) {
		if r.Rank() == 3 {
			return
		}
		c, err := r.CommOf([]int{0, 1, 2})
		if err != nil {
			t.Error(err)
			return
		}
		got := c.Bcast(0, payloadIfRoot(c, "hello"))
		if string(got) != "hello" {
			t.Errorf("comm bcast got %q", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func payloadIfRoot(c *Comm, s string) []byte {
	if c.Rank() == 0 {
		return []byte(s)
	}
	return nil
}

func TestRunCampaignThroughFacade(t *testing.T) {
	g := CampaignGrid{
		Seeds:    []int64{1, 2},
		Profiles: []*TCPProfile{LAM()},
		Clusters: []CampaignClusterSpec{{Name: "table1:4", Cluster: Table1().Prefix(4)}},
		Targets:  []CampaignTarget{{Kind: EstimatorTarget, ID: "hethockney"}},
	}
	out, err := RunCampaign(context.Background(), g, CampaignOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Failed() != 0 {
		t.Fatalf("results = %d (failed %d), want 2 clean", len(out.Results), out.Failed())
	}
	if len(out.Aggregates) != 1 {
		t.Fatalf("aggregates = %d, want 1", len(out.Aggregates))
	}
	agg := out.Aggregates[0]
	if s, ok := agg.Metrics["hockney.alpha"]; !ok || s.N != 2 || s.Mean <= 0 {
		t.Fatalf("hockney.alpha summary missing or degenerate: %+v", agg.Metrics)
	}
	for _, r := range out.Results {
		if r.Models == nil || r.Models.Meta == nil || r.Models.Meta.Profile == "" {
			t.Fatalf("campaign estimator result should carry model provenance: %+v", r.Models)
		}
	}
}
