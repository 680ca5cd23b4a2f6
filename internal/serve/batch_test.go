package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/models"
	"repro/internal/stats"
)

// fullZooFile builds a model file carrying every family the registry
// can serve, so batch rendering and the zero-alloc kernel are exercised
// across the whole zoo (including the LMO empirical gather band).
func fullZooFile(t testing.TB, k Key) *models.ModelFile {
	t.Helper()
	n := k.Nodes
	het := models.NewHetHockney(n)
	lmo := models.NewLMOX(n)
	for i := 0; i < n; i++ {
		lmo.C[i] = 1e-5
		lmo.T[i] = 2e-9
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			het.Alpha[i][j] = 1e-4
			het.Beta[i][j] = 1e-8
			lmo.L[i][j] = 5e-5
			lmo.Beta[i][j] = 1e8
		}
	}
	lmo.Gather = models.GatherEmpirical{
		M1: 1 << 10, M2: 1 << 16,
		EscModes: []stats.Mode{{Value: 3e-3, Count: 1}},
		ProbLow:  0.1, ProbHigh: 0.9,
	}
	pw := func(y0, y1 float64) *stats.PWLinear {
		p, err := stats.NewPWLinear([]float64{1, 1 << 20}, []float64{y0, y1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mf := models.NewModelFile(
		&models.Hockney{Alpha: 1e-4, Beta: 1e-8},
		het,
		&models.LogP{L: 5e-5, O: 1e-5, G: 2e-6, W: 1 << 10, P: n},
		&models.LogGP{L: 5e-5, O: 1e-5, SmG: 2e-6, BigG: 1e-8, P: n},
		&models.PLogP{L: 5e-5, OS: pw(1e-5, 1e-3), OR: pw(1e-5, 2e-3), G: pw(2e-5, 4e-3), P: n},
		lmo,
	)
	mf.Meta = &models.Meta{Cluster: k.Cluster, Nodes: k.Nodes, Profile: k.Profile, Seed: k.Seed}
	return mf
}

// batchItem mirrors one rendered result of the batch response.
type batchItem struct {
	Key         string             `json:"key"`
	Cache       string             `json:"cache"`
	Code        string             `json:"code"`
	Error       string             `json:"error"`
	Op          string             `json:"op"`
	Alg         string             `json:"alg"`
	M           int                `json:"m"`
	Nodes       int                `json:"nodes"`
	Root        int                `json:"root"`
	Predictions map[string]float64 `json:"predictions"`
	BandLow     *float64           `json:"band_low"`
	BandHigh    *float64           `json:"band_high"`
}

// batchResponse mirrors the batch envelope.
type batchResponse struct {
	Count   int         `json:"count"`
	Errors  int         `json:"errors"`
	Results []batchItem `json:"results"`
}

// TestBatchPredictMatchesUnary pins the batch protocol: defaults merge
// into rows, each row answers exactly what the unary endpoint answers
// for the same query (same floats, same band), and cached platforms
// serve from the hit path.
func TestBatchPredictMatchesUnary(t *testing.T) {
	k := Key{Cluster: "table1", Nodes: 16, Profile: cluster.LAM().Name, Seed: 3}
	_, ts := testServer(t, Config{Preload: []*models.ModelFile{fullZooFile(t, k)}})

	root2 := 2
	req := map[string]any{
		"cluster": "table1", "nodes": 16, "profile": "lam", "seed": 3,
		"op": "scatter", "m": 4096,
		"queries": []map[string]any{
			{},                          // pure defaults
			{"op": "gather", "m": 8192}, // irregular-region gather: band expected
			{"alg": "binomial", "m": 65536, "root": 7},
			{"op": "gather", "alg": "binomial"},
			{"root": root2, "m": 1},
		},
	}
	var br batchResponse
	status, body := postJSON(t, ts.URL+"/predict", req, &br)
	if status != 200 {
		t.Fatalf("batch status %d: %s", status, body)
	}
	if br.Count != 5 || br.Errors != 0 || len(br.Results) != 5 {
		t.Fatalf("envelope = count %d errors %d results %d", br.Count, br.Errors, len(br.Results))
	}
	if !json.Valid(body) {
		t.Fatalf("batch response is not valid JSON: %s", body)
	}

	for i, item := range br.Results {
		if item.Cache != "hit" {
			t.Fatalf("result %d cache = %q, want hit (preloaded)", i, item.Cache)
		}
		if len(item.Predictions) != 6 {
			t.Fatalf("result %d has %d families, want 6", i, len(item.Predictions))
		}
		// Replay the same query through the unary endpoint.
		unary := map[string]any{
			"cluster": "table1", "nodes": 16, "profile": "lam", "seed": 3,
			"op": item.Op, "alg": item.Alg, "m": item.M, "root": item.Root,
		}
		var pr PredictResponse
		if st, ub := postJSON(t, ts.URL+"/predict", unary, &pr); st != 200 {
			t.Fatalf("unary replay %d status %d: %s", i, st, ub)
		}
		if pr.Key != item.Key || pr.Nodes != item.Nodes {
			t.Fatalf("result %d key/nodes mismatch: %q/%d vs %q/%d",
				i, item.Key, item.Nodes, pr.Key, pr.Nodes)
		}
		for fam, want := range pr.Predictions {
			if got := item.Predictions[fam]; got != want {
				t.Fatalf("result %d %s = %v, unary says %v", i, fam, got, want)
			}
		}
		if (pr.BandLow == nil) != (item.BandLow == nil) {
			t.Fatalf("result %d band presence mismatch (unary %v)", i, pr.BandLow)
		}
		if pr.BandLow != nil && (*pr.BandLow != *item.BandLow || *pr.BandHigh != *item.BandHigh) {
			t.Fatalf("result %d band [%v,%v], unary [%v,%v]",
				i, *item.BandLow, *item.BandHigh, *pr.BandLow, *pr.BandHigh)
		}
	}
	// Query 1 is a gather at m=8192 inside the irregular region: the
	// band must render on both paths.
	if br.Results[1].BandLow == nil {
		t.Fatal("gather-linear result should carry the empirical band")
	}

	// Metrics follow-through: 5 batch-hit predictions + 5 unary-hit
	// replays, one batch of size 5 observed.
	var rep MetricsReport
	if st := getJSON(t, ts.URL+"/metrics?format=json", &rep); st != 200 {
		t.Fatalf("metrics status %d", st)
	}
	if rep.Predictions["hit/batch"] != 5 {
		t.Fatalf("hit/batch = %d, want 5 (%v)", rep.Predictions["hit/batch"], rep.Predictions)
	}
	if rep.Predictions["hit/unary"] != 5 {
		t.Fatalf("hit/unary = %d, want 5 (%v)", rep.Predictions["hit/unary"], rep.Predictions)
	}
	if rep.BatchSizes.Count != 1 || rep.BatchSizes.Sum != 5 || rep.BatchSizes.Max != 5 {
		t.Fatalf("batch_sizes = %+v, want one batch of 5", rep.BatchSizes)
	}
}

// TestBatchPredictValidation pins the whole-batch 400 contract: any
// invalid row rejects the batch, naming the offending query index.
func TestBatchPredictValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := map[string]any{
		"cluster": "table1", "nodes": 8, "profile": "lam", "seed": 1,
		"op": "scatter", "m": 1024,
	}
	cases := []struct {
		name    string
		queries []map[string]any
		wantMsg string
	}{
		{"empty", []map[string]any{}, "queries must not be empty"},
		{"bad op", []map[string]any{{}, {"op": "allgather"}}, "query 1: op must be scatter, gather, bcast or reduce"},
		{"bad alg", []map[string]any{{"alg": "ring"}}, "query 0: alg must be linear, binomial, binary or chain"},
		{"bad m", []map[string]any{{}, {}, {"m": -3}}, "query 2: m must be a positive block size"},
		{"bad root", []map[string]any{{"root": 8}}, "query 0: root must be in [0, 8)"},
		{"bad cluster", []map[string]any{{"cluster": "nosuch"}}, "query 0"},
		{"bad nodes", []map[string]any{{"nodes": 1}}, "query 0"},
	}
	for _, tc := range cases {
		req := map[string]any{"queries": tc.queries}
		for k, v := range base {
			req[k] = v
		}
		status, body := postJSON(t, ts.URL+"/predict", req, nil)
		if status != 400 {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, status, body)
		}
		if !strings.Contains(string(body), tc.wantMsg) {
			t.Fatalf("%s: body %q does not mention %q", tc.name, body, tc.wantMsg)
		}
	}
}

// TestBatchPredictDistinctKeys pins per-key resolution: a batch
// spanning several platforms resolves each key once and labels every
// row with its own key.
func TestBatchPredictDistinctKeys(t *testing.T) {
	k1 := Key{Cluster: "table1", Nodes: 8, Profile: cluster.LAM().Name, Seed: 1}
	k2 := Key{Cluster: "table1", Nodes: 16, Profile: cluster.MPICH().Name, Seed: 9}
	_, ts := testServer(t, Config{Preload: []*models.ModelFile{fakeFile(k1), fakeFile(k2)}})
	req := map[string]any{
		"cluster": "table1", "nodes": 8, "profile": "lam", "seed": 1,
		"op": "gather", "m": 512,
		"queries": []map[string]any{
			{},
			{"nodes": 16, "profile": "mpich", "seed": 9},
			{},
		},
	}
	var br batchResponse
	if status, body := postJSON(t, ts.URL+"/predict", req, &br); status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	if br.Results[0].Key != k1.String() || br.Results[2].Key != k1.String() {
		t.Fatalf("rows 0/2 keys = %q/%q, want %q", br.Results[0].Key, br.Results[2].Key, k1.String())
	}
	if br.Results[1].Key != k2.String() {
		t.Fatalf("row 1 key = %q, want %q", br.Results[1].Key, k2.String())
	}
	if br.Results[1].Nodes != 16 {
		t.Fatalf("row 1 nodes = %d, want 16", br.Results[1].Nodes)
	}
}

// TestAppendJSONFloatMatchesEncodingJSON pins the hand renderer to
// encoding/json's float bytes, so unary and batch responses agree on
// every prediction value.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.25, 1e-3, 123456.789, 2.718281828459045,
		1e-6, 9.999e-7, 1e-7, 3.5e-21, 1e21, 2.5e22, -4.2e-9,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Errorf("appendJSONFloat(%g) = %s, encoding/json says %s", v, got, want)
		}
	}
}

// TestPredictHotPathZeroAlloc is the bench-smoke guard: a cached
// prediction — lock-free registry lookup plus the full-zoo kernel —
// performs zero heap allocations for every tree shape, and so does
// rendering its answer into a warm buffer. Tree shapes
// recurse over the shared collective.ShapeTree trees, which are built
// on first use: AllocsPerRun's warm-up call builds them before counting.
func TestPredictHotPathZeroAlloc(t *testing.T) {
	k := Key{Cluster: "table1", Nodes: 16, Profile: "lam", Seed: 3}
	r := NewRegistry(4, nil, RegistryOptions{})
	if _, err := r.Put(fullZooFile(t, k)); err != nil {
		t.Fatal(err)
	}
	queries := []models.Query{
		{Coll: models.CollScatter, Alg: collective.AlgLinear},
		{Coll: models.CollGather, Alg: collective.AlgLinear},
	}
	shapes := []models.Query{
		{Alg: collective.AlgBinomial},
		{Alg: collective.AlgBinary},
		{Alg: collective.AlgChain},
		{Alg: collective.AlgBinary, Degree: 4},
	}
	for _, s := range shapes {
		for _, coll := range []models.Collective{models.CollScatter, models.CollGather, models.CollBcast, models.CollReduce} {
			s.Coll, s.Root = coll, 5
			queries = append(queries, s)
		}
	}
	var sink float64
	for _, q := range queries {
		q.N, q.M = k.Nodes, 4096
		if n := testing.AllocsPerRun(200, func() {
			e, ok := r.LookupHit(k)
			if !ok {
				t.Fatal("lost the cached entry")
			}
			var vals [numFamilies]float64
			predictInto(&e.preds, q, &vals)
			sink += vals[famLMO]
		}); n != 0 {
			t.Fatalf("cached predict hot path (%v %v degree %d root %d) allocates %.1f/op, want 0", q.Alg, q.Coll, q.Degree, q.Root, n)
		}
	}

	e, _ := r.LookupHit(k)
	for _, q := range queries {
		q.N, q.M = k.Nodes, 4096
		b := AppendAnswer(nil, &e.preds, e.LMO, q) // warm the buffer
		if n := testing.AllocsPerRun(200, func() {
			b = AppendAnswer(b[:0], &e.preds, e.LMO, q)
		}); n != 0 {
			t.Fatalf("rendering the answer to %v %v degree %d into a warm buffer allocates %.1f/op, want 0", q.Alg, q.Coll, q.Degree, n)
		}
	}
	_ = fmt.Sprint(sink)
}

// TestPredictQueryShapes pins the /predict vocabulary beyond linear and
// binomial scatter/gather: bcast, reduce, binary, chain, k-ary degrees
// and segmentation answer unary and batched, every row equal to the
// in-process Predict(Query), and degree/segment echoed only when set.
func TestPredictQueryShapes(t *testing.T) {
	k := Key{Cluster: "table1", Nodes: 16, Profile: cluster.LAM().Name, Seed: 3}
	_, ts := testServer(t, Config{Preload: []*models.ModelFile{fullZooFile(t, k)}})
	ref := newRefZoo(t, k)
	shapes := []map[string]any{
		{"op": "bcast", "alg": "binomial"},
		{"op": "reduce", "alg": "chain", "root": 5},
		{"op": "scatter", "alg": "binary"},
		{"op": "gather", "alg": "chain"},
		{"op": "bcast", "alg": "binary", "degree": 4},
		{"op": "gather", "alg": "linear", "segment": 4096},
		{"op": "reduce", "alg": "binary", "degree": 8, "segment": 3000},
	}
	platform := map[string]any{"cluster": "table1", "nodes": 16, "profile": "lam", "seed": 3, "m": 10000}
	for _, shape := range shapes {
		req := map[string]any{}
		for k, v := range platform {
			req[k] = v
		}
		for k, v := range shape {
			req[k] = v
		}
		var r servedRow
		status, body := postJSON(t, ts.URL+"/predict", req, &r)
		if status != 200 || len(r.Predictions) == 0 {
			t.Fatalf("%v: status %d, %d families: %s", shape, status, len(r.Predictions), body)
		}
		ref.check(t, r)
		_, hasDegree := shape["degree"]
		_, hasSegment := shape["segment"]
		if bytes.Contains(body, []byte(`"degree"`)) != hasDegree || bytes.Contains(body, []byte(`"segment"`)) != hasSegment {
			t.Fatalf("%v: degree/segment echo mismatch: %s", shape, body)
		}
	}
	batch := map[string]any{"queries": shapes}
	for k, v := range platform {
		batch[k] = v
	}
	var br struct {
		Results []servedRow `json:"results"`
	}
	if status, body := postJSON(t, ts.URL+"/predict", batch, &br); status != 200 || len(br.Results) != len(shapes) {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	for _, r := range br.Results {
		if len(r.Predictions) == 0 {
			t.Fatalf("batch row %+v has no predictions", r)
		}
		ref.check(t, r)
	}
}

// TestPredictPieceLimit pins the work bound: a request whose segmented
// queries need more than maxSegmentPieces per-piece evaluations is
// rejected with 400, unary or summed over a batch; at the limit it
// answers.
func TestPredictPieceLimit(t *testing.T) {
	k := Key{Cluster: "table1", Nodes: 16, Profile: cluster.LAM().Name, Seed: 3}
	_, ts := testServer(t, Config{Preload: []*models.ModelFile{fullZooFile(t, k)}})
	platform := `"cluster":"table1","nodes":16,"profile":"lam","seed":3,"op":"gather","segment":2`
	cases := []struct {
		body string
		want int
	}{
		{fmt.Sprintf(`{%s,"m":%d}`, platform, 2*maxSegmentPieces), 200},
		{fmt.Sprintf(`{%s,"m":%d}`, platform, 2*maxSegmentPieces+1), 400},
		{fmt.Sprintf(`{%s,"queries":[{"m":%d},{"m":%d}]}`, platform, maxSegmentPieces, maxSegmentPieces), 200},
		{fmt.Sprintf(`{%s,"queries":[{"m":%d},{"m":%d}]}`, platform, maxSegmentPieces, maxSegmentPieces+2), 400},
		{fmt.Sprintf(`{%s,"queries":[{"m":%d},{"m":%d,"segment":%d}]}`, platform, 2*maxSegmentPieces, 1<<20, 1<<20), 200},
	}
	for i, tc := range cases {
		var v any
		if status, body := postJSON(t, ts.URL+"/predict", json.RawMessage(tc.body), &v); status != tc.want {
			t.Fatalf("case %d: status %d, want %d: %s", i, status, tc.want, body)
		}
	}
}
