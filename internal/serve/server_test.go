package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/models"
)

// fakeFile builds a minimal servable model file for a key.
func fakeFile(k Key) *models.ModelFile {
	mf := models.NewModelFile(&models.Hockney{Alpha: 1e-4, Beta: 1e-8}, nil, nil, nil, nil, nil)
	mf.Meta = &models.Meta{Cluster: k.Cluster, Nodes: k.Nodes, Profile: k.Profile, Seed: k.Seed}
	return mf
}

func TestRegistryLRUEviction(t *testing.T) {
	r := NewRegistry(2, nil, RegistryOptions{})
	k := func(seed int64) Key { return Key{Cluster: "table1", Nodes: 8, Profile: "lam", Seed: seed} }
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := r.Put(fakeFile(k(seed))); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, ok := r.LookupHit(k(1)); ok {
		t.Fatal("seed 1 should have been evicted (LRU)")
	}
	if _, ok := r.LookupHit(k(3)); !ok {
		t.Fatal("seed 3 should be cached")
	}
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}

	// Touching seed 2 protects it from the next eviction.
	if _, ok := r.LookupHit(k(2)); !ok {
		t.Fatal("seed 2 should be cached")
	}
	if _, err := r.Put(fakeFile(k(4))); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.LookupHit(k(2)); !ok {
		t.Fatal("recently used seed 2 should survive the eviction")
	}
	if _, ok := r.LookupHit(k(3)); ok {
		t.Fatal("seed 3 was least recently used and should be gone")
	}
}

func TestRegistrySingleflight(t *testing.T) {
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex
	k := Key{Cluster: "table1", Nodes: 8, Profile: "lam", Seed: 7}
	r := NewRegistry(4, func(_ context.Context, key Key) (*models.ModelFile, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-release
		return fakeFile(key), nil
	}, RegistryOptions{})

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.GetOrEstimate(context.Background(), k)
		}(i)
	}
	// Let every request either claim or join the flight, then release.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := r.Stats()
		if st.Misses+st.Deduped == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never registered: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := r.Stats()
	if st.Estimations != 1 {
		t.Fatalf("Estimations = %d, want 1 (singleflight)", st.Estimations)
	}
	if st.Deduped != n-1 {
		t.Fatalf("Deduped = %d, want %d", st.Deduped, n-1)
	}
	// Subsequent call is a plain hit.
	if _, hit, err := r.GetOrEstimate(context.Background(), k); err != nil || !hit {
		t.Fatalf("expected cache hit after flight, hit=%v err=%v", hit, err)
	}
}

func TestRegistryEstimateError(t *testing.T) {
	boom := fmt.Errorf("simulated estimation failure")
	r := NewRegistry(4, func(context.Context, Key) (*models.ModelFile, error) { return nil, boom }, RegistryOptions{})
	k := Key{Cluster: "table1", Nodes: 8, Profile: "lam", Seed: 1}
	if _, _, err := r.GetOrEstimate(context.Background(), k); err == nil {
		t.Fatal("want estimation error")
	}
	if r.Len() != 0 {
		t.Fatal("failed estimation must not cache an entry")
	}
	// A failed flight must not wedge future requests.
	if _, _, err := r.GetOrEstimate(context.Background(), k); err == nil {
		t.Fatal("want estimation error on retry too")
	}
}

func TestPutRejectsMissingMeta(t *testing.T) {
	r := NewRegistry(4, nil, RegistryOptions{})
	mf := models.NewModelFile(&models.Hockney{Alpha: 1, Beta: 1}, nil, nil, nil, nil, nil)
	if _, err := r.Put(mf); err == nil {
		t.Fatal("Put must reject a model file without provenance meta")
	}
}

func TestNewRejectsPreloadWithoutMeta(t *testing.T) {
	mf := models.NewModelFile(&models.Hockney{Alpha: 1, Beta: 1}, nil, nil, nil, nil, nil)
	if _, err := New(context.Background(), Config{Preload: []*models.ModelFile{mf}}); err == nil {
		t.Fatal("New must reject preload files without meta")
	}
}

// testServer wires a server whose platform requests resolve normally.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, buf.String())
		}
	}
	return resp.StatusCode, buf.Bytes()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, buf.String())
		}
	}
	return resp.StatusCode
}

// TestServerEndToEnd is the acceptance flow: POST /estimate a LAM
// 16-node job, poll it to completion, then POST /predict and verify the
// answer comes from the cached model without re-estimating.
func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16-node estimation in -short mode")
	}
	_, ts := testServer(t, Config{Parallel: 2})

	var job Job
	status, body := postJSON(t, ts.URL+"/estimate", map[string]any{
		"cluster": "table1", "nodes": 16, "profile": "lam",
	}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("POST /estimate: status %d: %s", status, body)
	}
	if job.ID == "" || job.State != JobRunning {
		t.Fatalf("unexpected job snapshot: %+v", job)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for job.State == JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish in time: %+v", job.ID, job)
		}
		time.Sleep(100 * time.Millisecond)
		if st := getJSON(t, ts.URL+"/jobs/"+job.ID, &job); st != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", job.ID, st)
		}
	}
	if job.State != JobDone || job.Error != "" {
		t.Fatalf("job failed: %+v", job)
	}
	wantKey := Key{Cluster: "table1", Nodes: 16, Profile: cluster.LAM().Name, Seed: 1}
	if len(job.ModelKeys) != 1 || job.ModelKeys[0] != wantKey.String() {
		t.Fatalf("ModelKeys = %v, want [%s]", job.ModelKeys, wantKey)
	}

	// The prediction must be served from the cache the job populated.
	var pred PredictResponse
	status, body = postJSON(t, ts.URL+"/predict", map[string]any{
		"cluster": "table1", "nodes": 16, "profile": "lam",
		"op": "gather", "alg": "linear", "m": 64 << 10,
	}, &pred)
	if status != http.StatusOK {
		t.Fatalf("POST /predict: status %d: %s", status, body)
	}
	if pred.Cache != "hit" {
		t.Fatalf("Cache = %q, want hit (prediction must not re-estimate)", pred.Cache)
	}
	for _, fam := range []string{"hockney", "het-hockney", "logp", "loggp", "plogp", "lmo"} {
		if v, ok := pred.Predictions[fam]; !ok || v <= 0 {
			t.Fatalf("prediction for %s missing or non-positive: %v", fam, pred.Predictions)
		}
	}

	var rep MetricsReport
	if st := getJSON(t, ts.URL+"/metrics?format=json", &rep); st != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", st)
	}
	if rep.Cache.Hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1", rep.Cache.Hits)
	}
	if rep.Cache.Estimations != 0 {
		t.Fatalf("cache estimations = %d, want 0 (predict must reuse the job's models)", rep.Cache.Estimations)
	}

	// The model listing shows the populated entry.
	var ml struct {
		Models []modelInfo `json:"models"`
	}
	if st := getJSON(t, ts.URL+"/models", &ml); st != http.StatusOK {
		t.Fatalf("GET /models: status %d", st)
	}
	if len(ml.Models) != 1 || ml.Models[0].Key != wantKey.String() {
		t.Fatalf("GET /models = %+v, want one entry for %s", ml.Models, wantKey)
	}
	if len(ml.Models[0].Models) != 6 {
		t.Fatalf("entry should hold all six model families: %v", ml.Models[0].Models)
	}
}

// TestPredictColdMissEstimates covers the registry miss path: a predict
// on an empty registry estimates synchronously, and the second predict
// hits the cache.
func TestPredictColdMissEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real 4-node estimation")
	}
	_, ts := testServer(t, Config{})

	req := map[string]any{
		"cluster": "table1", "nodes": 4, "profile": "ideal",
		"op": "scatter", "alg": "binomial", "m": 1 << 10,
	}
	var pred PredictResponse
	status, body := postJSON(t, ts.URL+"/predict", req, &pred)
	if status != http.StatusOK {
		t.Fatalf("POST /predict: status %d: %s", status, body)
	}
	if pred.Cache != "estimated" {
		t.Fatalf("Cache = %q, want estimated on a cold registry", pred.Cache)
	}
	status, _ = postJSON(t, ts.URL+"/predict", req, &pred)
	if status != http.StatusOK || pred.Cache != "hit" {
		t.Fatalf("second predict: status %d cache %q, want 200/hit", status, pred.Cache)
	}
	var rep MetricsReport
	getJSON(t, ts.URL+"/metrics?format=json", &rep)
	if rep.Cache.Estimations != 1 || rep.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 estimation and 1 hit", rep.Cache)
	}
}

func TestPredictFromPreload(t *testing.T) {
	k := Key{Cluster: "table1", Nodes: 8, Profile: cluster.LAM().Name, Seed: 1}
	_, ts := testServer(t, Config{Preload: []*models.ModelFile{fakeFile(k)}})

	var pred PredictResponse
	status, body := postJSON(t, ts.URL+"/predict", map[string]any{
		"cluster": "table1", "nodes": 8, "profile": "lam",
		"op": "scatter", "m": 1024,
	}, &pred)
	if status != http.StatusOK {
		t.Fatalf("POST /predict: status %d: %s", status, body)
	}
	if pred.Cache != "hit" {
		t.Fatalf("Cache = %q, want hit from preloaded model", pred.Cache)
	}
	if len(pred.Predictions) != 1 || pred.Predictions["hockney"] <= 0 {
		t.Fatalf("preloaded file holds only hockney; got %v", pred.Predictions)
	}
}

// A preloaded file whose meta names its profile as requests do ("lam")
// is keyed by the name requests resolve to ("LAM 7.1.3"): its first
// /predict is a hit, and nothing is estimated. Keyed by the meta's
// name as written, the preload was never found, and the first /predict
// estimated the platform again.
func TestPreloadResolvesProfileAsRequestsDo(t *testing.T) {
	for _, prof := range []string{"lam", cluster.LAM().Name} {
		mf := fakeFile(Key{Cluster: "table1", Nodes: 8, Profile: prof, Seed: 1})
		s, ts := testServer(t, Config{Preload: []*models.ModelFile{mf}})
		if mf.Meta.Profile != prof {
			t.Fatalf("preload changed the caller's meta to %q", mf.Meta.Profile)
		}
		var pred PredictResponse
		status, body := postJSON(t, ts.URL+"/predict", map[string]any{
			"cluster": "table1", "nodes": 8, "profile": "lam",
			"op": "scatter", "m": 1024,
		}, &pred)
		if status != http.StatusOK || pred.Cache != "hit" {
			t.Fatalf("meta profile %q: status %d cache %q, want 200/hit: %s", prof, status, pred.Cache, body)
		}
		if st := s.reg.Stats(); st.Estimations != 0 {
			t.Fatalf("meta profile %q: %d estimations, want 0", prof, st.Estimations)
		}
	}
}

// A preloaded file whose meta names a profile no request can name is
// refused: no request would ever find it.
func TestNewRejectsPreloadOfUnknownProfile(t *testing.T) {
	for _, prof := range []string{"openmpi", ""} {
		mf := fakeFile(Key{Cluster: "table1", Nodes: 8, Profile: prof, Seed: 1})
		if _, err := New(context.Background(), Config{Preload: []*models.ModelFile{mf}}); err == nil {
			t.Errorf("New accepted a preload whose meta names profile %q", prof)
		}
	}
}

// A preloaded file whose per-node models cover another node count than
// its meta names is refused. Served under its meta's key, every
// /predict answered 200 with the lmo row missing, since LMO refuses
// the key's node count.
func TestNewRejectsPreloadOfOtherNodeCount(t *testing.T) {
	lmo := models.NewLMOX(4)
	mf := models.NewModelFile(&models.Hockney{Alpha: 1e-4, Beta: 1e-8}, nil, nil, nil, nil, lmo)
	mf.Meta = &models.Meta{Cluster: "table1", Nodes: 3, Profile: cluster.LAM().Name, Seed: 1}
	if _, err := New(context.Background(), Config{Preload: []*models.ModelFile{mf}}); err == nil {
		t.Fatal("New accepted a 4-node LMO model under a 3-node meta")
	}
}

func TestPredictValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	bad := []map[string]any{
		{"op": "gather", "m": 0},                                     // m missing
		{"op": "allgather", "m": 1024},                               // unsupported op
		{"op": "gather", "m": 1024, "alg": "ring"},                   // unsupported alg
		{"op": "gather", "m": 1024, "root": 99},                      // root out of range
		{"op": "gather", "m": 1024, "cluster": "nope"},               // unknown cluster
		{"op": "gather", "m": 1024, "profile": "openmpi"},            // unknown profile
		{"op": "gather", "m": 1024, "cluster": "table1", "nodes": 2}, // too few nodes
	}
	for i, req := range bad {
		if status, body := postJSON(t, ts.URL+"/predict", req, nil); status != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400: %s", i, status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: status %d, want 405", resp.StatusCode)
	}
}

func TestEstimateValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	if status, body := postJSON(t, ts.URL+"/estimate", map[string]any{
		"estimator": "lmo5",
	}, nil); status != http.StatusBadRequest {
		t.Fatalf("lmo5 produces no servable models; status %d, want 400: %s", status, body)
	}
	if status, _ := postJSON(t, ts.URL+"/estimate", map[string]any{
		"cluster": "mystery",
	}, nil); status != http.StatusBadRequest {
		t.Fatalf("unknown cluster: status %d, want 400", status)
	}
}

func TestJobsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	if status := getJSON(t, ts.URL+"/jobs/job-42", nil); status != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", status)
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if status := getJSON(t, ts.URL+"/jobs", &list); status != http.StatusOK {
		t.Fatalf("GET /jobs: status %d", status)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("fresh server should list no jobs: %+v", list.Jobs)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	var out healthState
	if status := getJSON(t, ts.URL+"/healthz", &out); status != http.StatusOK || out.Status != "ok" {
		t.Fatalf("healthz: status %d body %+v", status, out)
	}
	if out.Draining {
		t.Fatal("fresh server must not report draining")
	}
}

func TestMetricsCountsRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	getJSON(t, ts.URL+"/healthz", nil)
	postJSON(t, ts.URL+"/predict", map[string]any{"op": "bad"}, nil) // 400
	var rep MetricsReport
	if status := getJSON(t, ts.URL+"/metrics?format=json", &rep); status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	if rep.Requests["healthz"].Count != 1 {
		t.Fatalf("healthz count = %d, want 1", rep.Requests["healthz"].Count)
	}
	if rep.Requests["predict"].Errors != 1 {
		t.Fatalf("predict errors = %d, want 1", rep.Requests["predict"].Errors)
	}
}

// TestMetricsPrometheusExposition checks the default GET /metrics
// rendering: the Prometheus text format carrying the request counters,
// the latency histogram and the gauges derived from the live service.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := testServer(t, Config{})
	getJSON(t, ts.URL+"/healthz", nil)
	getJSON(t, ts.URL+"/healthz", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	for _, want := range []string{
		"# TYPE lmoserve_requests_total counter",
		`lmoserve_requests_total{endpoint="healthz"} 2`,
		"# TYPE lmoserve_request_seconds histogram",
		`lmoserve_request_seconds_count{endpoint="healthz"} 2`,
		"# TYPE lmoserve_uptime_seconds gauge",
		"lmoserve_campaign_workers 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	// An Accept: application/json client gets the structured report.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	jresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var rep MetricsReport
	if err := json.NewDecoder(jresp.Body).Decode(&rep); err != nil {
		t.Fatalf("Accept: application/json did not yield the JSON report: %v", err)
	}
	if rep.Requests["healthz"].Count != 2 {
		t.Fatalf("healthz count = %d, want 2", rep.Requests["healthz"].Count)
	}
}
