package serve

// The deterministic chaos suite: scripted faults — slow estimations,
// wedged profiles, panicking tasks and handlers, malformed and
// oversized payloads, queue overload, mid-job shutdown — driven
// through the campaign fault-injection hook (Config.taskHook) and the
// injected clock, asserting the degraded behavior the robustness layer
// promises: reads keep flowing, failures are typed and byte-stable,
// and drains leave no job in the running state. Run under -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/models"
)

// chaosTaskOK fabricates a successful estimation result for a task:
// a minimal model file keyed to the task's platform.
func chaosTaskOK(_ campaign.Grid, tk campaign.Task) campaign.Result {
	mf := models.NewModelFile(&models.Hockney{Alpha: 1e-4, Beta: 1e-8}, nil, nil, nil, nil, nil)
	mf.Meta = &models.Meta{
		Cluster: tk.Cluster.Name, Nodes: tk.Cluster.Cluster.N(),
		Profile: tk.Profile.Name, Seed: tk.Seed,
	}
	return campaign.Result{Models: mf}
}

// rawPost posts a body and returns status, headers and the exact
// response bytes (the byte-stability assertions need them verbatim).
func rawPost(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosOverloadShedsWhileCacheServes wedges the single estimation
// slot with a slow task and checks the overload contract: further
// misses are shed with 429 + Retry-After and a byte-stable typed body,
// serve_shed_total counts them, and /predict on cached models keeps
// answering throughout.
func TestChaosOverloadShedsWhileCacheServes(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	preKey := Key{Cluster: "table1", Nodes: 8, Profile: cluster.LAM().Name, Seed: 1}
	s, ts := testServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      -1, // no queue: the second miss sheds immediately
		RetryAfter:    2 * time.Second,
		Preload:       []*models.ModelFile{fakeFile(preKey)},
		taskHook: func(g campaign.Grid, tk campaign.Task) campaign.Result {
			<-gate
			return chaosTaskOK(g, tk)
		},
	})
	// Registered after testServer's ts.Close, so it runs first: a failed
	// assertion releases the wedge instead of leaving Close waiting on it.
	t.Cleanup(release)

	// A slow miss occupies the only estimation slot.
	slow := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/predict", "application/json",
			strings.NewReader(`{"cluster":"table1","nodes":4,"profile":"ideal","op":"gather","m":1024}`))
		if err != nil {
			slow <- -1
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	waitFor(t, "slot occupied", func() bool { return s.adm.InFlight() == 1 })

	// Further misses are shed, byte-identically.
	shedBody := `{"cluster":"table1","nodes":5,"profile":"ideal","op":"gather","m":1024}`
	st1, hdr, body1 := rawPost(t, ts.URL+"/predict", shedBody)
	if st1 != http.StatusTooManyRequests {
		t.Fatalf("overloaded miss: status %d, want 429: %s", st1, body1)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	if !strings.Contains(string(body1), `"code": "shed"`) {
		t.Fatalf("shed body missing typed code: %s", body1)
	}
	st2, _, body2 := rawPost(t, ts.URL+"/predict", shedBody)
	if st2 != st1 || !bytes.Equal(body1, body2) {
		t.Fatalf("shed responses not byte-stable:\n%s\n%s", body1, body2)
	}

	// Cached models keep answering while the backlog is wedged.
	hitStatus, _, hitBody := rawPost(t, ts.URL+"/predict",
		`{"cluster":"table1","nodes":8,"profile":"lam","op":"scatter","m":1024}`)
	if hitStatus != http.StatusOK || !strings.Contains(string(hitBody), `"cache":"hit"`) {
		t.Fatalf("cached predict during overload: status %d body %s", hitStatus, hitBody)
	}

	if got := int64(s.metrics.shed.Value("predict")); got != 2 {
		t.Fatalf("serve_shed_total{predict} = %d, want 2", got)
	}
	var expo bytes.Buffer
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(expo.String(), `serve_shed_total{endpoint="predict"} 2`) {
		t.Fatalf("exposition missing shed counter:\n%s", expo.String())
	}

	// Release the wedge: the slow request completes normally.
	release()
	if st := <-slow; st != http.StatusOK {
		t.Fatalf("slow predict after release: status %d", st)
	}
}

// TestChaosWedgedProfileTripsBreakerIsolated wedges one profile's
// estimator and checks the blast radius: that key's circuit opens and
// fast-fails with 503 breaker_open, other keys estimate normally, and
// after the cooldown a half-open probe restores service.
func TestChaosWedgedProfileTripsBreakerIsolated(t *testing.T) {
	var clk atomic.Int64
	var wedged atomic.Bool
	wedged.Store(true)
	s, ts := testServer(t, Config{
		Breaker: BreakerConfig{Failures: 2, Cooldown: time.Minute, MaxRetries: 0},
		now:     func() time.Duration { return time.Duration(clk.Load()) },
		taskHook: func(g campaign.Grid, tk campaign.Task) campaign.Result {
			if wedged.Load() && tk.Profile.Name == cluster.MPICH().Name {
				return campaign.Result{Err: "injected: mpich estimator wedged"}
			}
			return chaosTaskOK(g, tk)
		},
	})

	mpich := `{"cluster":"table1","nodes":4,"profile":"mpich","op":"gather","m":1024}`
	for i := 0; i < 2; i++ {
		if st, _, body := rawPost(t, ts.URL+"/predict", mpich); st != http.StatusInternalServerError {
			t.Fatalf("wedged estimation %d: status %d, want 500: %s", i, st, body)
		}
	}
	st, hdr, body := rawPost(t, ts.URL+"/predict", mpich)
	if st != http.StatusServiceUnavailable || !strings.Contains(string(body), `"code": "breaker_open"`) {
		t.Fatalf("tripped circuit: status %d body %s, want 503 breaker_open", st, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "60" {
		t.Fatalf("Retry-After = %q, want 60 (the full cooldown)", ra)
	}

	// Healthy keys are untouched by the wedged one.
	lam := `{"cluster":"table1","nodes":4,"profile":"lam","op":"gather","m":1024}`
	if st, _, body := rawPost(t, ts.URL+"/predict", lam); st != http.StatusOK ||
		!strings.Contains(string(body), `"cache":"estimated"`) {
		t.Fatalf("healthy key during trip: status %d body %s", st, body)
	}

	// The breaker state is visible in the exposition.
	mpichKey := Key{Cluster: "table1", Nodes: 4, Profile: cluster.MPICH().Name, Seed: 1}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var expo bytes.Buffer
	expo.ReadFrom(resp.Body)
	resp.Body.Close()
	want := `serve_breaker_state{key="` + mpichKey.String() + `"} 2`
	if !strings.Contains(expo.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, expo.String())
	}

	// Past the cooldown, the estimator has recovered: the single
	// half-open probe closes the circuit and service resumes.
	wedged.Store(false)
	clk.Store(int64(time.Minute))
	if st, _, body := rawPost(t, ts.URL+"/predict", mpich); st != http.StatusOK {
		t.Fatalf("post-cooldown probe: status %d body %s", st, body)
	}
	states := s.reg.BreakerStates()
	for _, b := range states {
		if b.Key == mpichKey.String() && b.State != "closed" {
			t.Fatalf("breaker after successful probe = %+v, want closed", b)
		}
	}
}

// TestChaosHandlerPanicRecovers injects handler panics and checks the
// recovery middleware: a panic before any write yields a typed 500 and
// increments serve_panics_total; a panic after a partial write cannot
// corrupt the response with a second status line.
func TestChaosHandlerPanicRecovers(t *testing.T) {
	s, ts := testServer(t, Config{})

	h := s.instrument("chaos", s.recovered(func(w http.ResponseWriter, r *http.Request) {
		panic("injected chaos panic")
	}))
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/chaos", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"code": "panic"`) {
		t.Fatalf("panic response missing typed code: %s", rec.Body.String())
	}
	if got := s.metrics.PanicCount(); got != 1 {
		t.Fatalf("serve_panics_total = %d, want 1", got)
	}

	// Panic after a 200 was already written: recovery must not write a
	// second status, only count the panic.
	h2 := s.instrument("chaos", s.recovered(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"partial": "write"})
		panic("injected post-write panic")
	}))
	rec2 := httptest.NewRecorder()
	h2(rec2, httptest.NewRequest(http.MethodGet, "/chaos", nil))
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-write panic rewrote status to %d", rec2.Code)
	}
	if got := s.metrics.PanicCount(); got != 2 {
		t.Fatalf("serve_panics_total = %d, want 2", got)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var expo bytes.Buffer
	expo.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(expo.String(), "serve_panics_total 2") {
		t.Fatalf("exposition missing serve_panics_total:\n%s", expo.String())
	}
}

// TestChaosMalformedAndOversizedPayloads checks the payload guards:
// malformed JSON gets a byte-stable 400 bad_json, a body past
// MaxBodyBytes gets a byte-stable 413 oversized — also when its JSON
// value ends inside the limit and padding follows.
func TestChaosMalformedAndOversizedPayloads(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 256, taskHook: chaosTaskOK})

	st1, _, body1 := rawPost(t, ts.URL+"/predict", `{"op": not json`)
	if st1 != http.StatusBadRequest || !strings.Contains(string(body1), `"code": "bad_json"`) {
		t.Fatalf("malformed body: status %d body %s, want 400 bad_json", st1, body1)
	}
	st2, _, body2 := rawPost(t, ts.URL+"/predict", `{"op": not json`)
	if st2 != st1 || !bytes.Equal(body1, body2) {
		t.Fatalf("malformed responses not byte-stable:\n%s\n%s", body1, body2)
	}

	big := `{"op":"gather","pad":"` + strings.Repeat("x", 512) + `"}`
	st3, _, body3 := rawPost(t, ts.URL+"/predict", big)
	if st3 != http.StatusRequestEntityTooLarge || !strings.Contains(string(body3), `"code": "oversized"`) {
		t.Fatalf("oversized body: status %d body %s, want 413 oversized", st3, body3)
	}
	if !strings.Contains(string(body3), "256") {
		t.Fatalf("oversized body should name the limit: %s", body3)
	}
	st4, _, body4 := rawPost(t, ts.URL+"/predict", big)
	if st4 != st3 || !bytes.Equal(body3, body4) {
		t.Fatalf("oversized responses not byte-stable:\n%s\n%s", body3, body4)
	}
	// The same guard protects /estimate.
	if st, _, body := rawPost(t, ts.URL+"/estimate", big); st != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized estimate: status %d body %s, want 413", st, body)
	}
	// A request padded past the limit is oversized on every
	// endpoint that takes a body, though its JSON value ends early.
	padded := `{"cluster":"table1","nodes":16,"profile":"lam","seed":1,"op":"gather","m":4096}` + strings.Repeat(" ", 4096)
	for _, ep := range []string{"/predict", "/estimate", "/tune"} {
		if st, _, body := rawPost(t, ts.URL+ep, padded); st != http.StatusRequestEntityTooLarge || !bytes.Equal(body, body3) {
			t.Fatalf("padded body on %s: status %d body %s, want 413 %s", ep, st, body, body3)
		}
	}
}

// TestChaosTaskPanicCaptured injects panicking campaign tasks and
// checks containment: the job goes terminal with the panic recorded,
// the panic count surfaces in the metrics, and the process survives.
func TestChaosTaskPanicCaptured(t *testing.T) {
	_, ts := testServer(t, Config{
		taskHook: func(campaign.Grid, campaign.Task) campaign.Result {
			panic("injected task panic")
		},
	})

	var job Job
	status, body := postJSON(t, ts.URL+"/estimate",
		map[string]any{"cluster": "table1", "nodes": 4, "profile": "ideal"}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("POST /estimate: status %d: %s", status, body)
	}
	waitFor(t, "job terminal", func() bool {
		j, ok := getJob(t, ts.URL, job.ID)
		return ok && j.State != JobRunning
	})
	j, _ := getJob(t, ts.URL, job.ID)
	if !strings.Contains(j.Error, "panic") {
		t.Fatalf("job error should record the panic: %+v", j)
	}
	if j.Progress.Panicked != 1 {
		t.Fatalf("Progress.Panicked = %d, want 1", j.Progress.Panicked)
	}

	var rep MetricsReport
	if st := getJSON(t, ts.URL+"/metrics?format=json", &rep); st != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", st)
	}
	if rep.Jobs.TaskPanics != 1 {
		t.Fatalf("Jobs.TaskPanics = %d, want 1", rep.Jobs.TaskPanics)
	}

	// A synchronous miss over the same panicking estimator degrades to
	// a 500, not a crash.
	if st, _, b := rawPost(t, ts.URL+"/predict",
		`{"cluster":"table1","nodes":4,"profile":"ideal","op":"gather","m":1024}`); st != http.StatusInternalServerError {
		t.Fatalf("predict over panicking estimator: status %d body %s, want 500", st, b)
	}
}

func getJob(t *testing.T, base, id string) (Job, bool) {
	t.Helper()
	var j Job
	st := getJSON(t, base+"/jobs/"+id, &j)
	return j, st == http.StatusOK
}

// TestChaosJobStoreBounded checks the job-table bound: terminal jobs
// are evicted oldest-first past MaxJobs, and the live-job gauge tracks
// the table.
func TestChaosJobStoreBounded(t *testing.T) {
	_, ts := testServer(t, Config{
		MaxJobs:        3,
		MaxRunningJobs: 1,
		taskHook:       chaosTaskOK,
	})

	for i := 0; i < 5; i++ {
		var job Job
		status, body := postJSON(t, ts.URL+"/estimate",
			map[string]any{"cluster": "table1", "nodes": 4, "profile": "ideal", "seed": i + 1}, &job)
		if status != http.StatusAccepted {
			t.Fatalf("estimate %d: status %d: %s", i, status, body)
		}
		waitFor(t, "job terminal", func() bool {
			j, ok := getJob(t, ts.URL, job.ID)
			return ok && j.State != JobRunning
		})
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if st := getJSON(t, ts.URL+"/jobs", &list); st != http.StatusOK {
		t.Fatalf("GET /jobs: status %d", st)
	}
	if len(list.Jobs) > 3 {
		t.Fatalf("job table holds %d jobs, want <= MaxJobs=3", len(list.Jobs))
	}
	// The newest jobs survive; job-1 was evicted first.
	for _, j := range list.Jobs {
		if j.ID == "job-1" {
			t.Fatalf("oldest terminal job must be evicted first: %+v", list.Jobs)
		}
	}
	var rep MetricsReport
	getJSON(t, ts.URL+"/metrics?format=json", &rep)
	if rep.Jobs.Live != len(list.Jobs) {
		t.Fatalf("live-jobs gauge %d disagrees with table %d", rep.Jobs.Live, len(list.Jobs))
	}
}

// TestChaosJobParallelCapped checks that a request body cannot widen a
// job's worker pool past the server's: /estimate and /tune refuse a
// parallel above Config.Parallel with 400 before any job starts, and a
// job that names none runs on the server's count.
func TestChaosJobParallelCapped(t *testing.T) {
	key := Key{Cluster: "table1", Nodes: 4, Profile: cluster.LAM().Name, Seed: 1}
	s, ts := testServer(t, Config{
		Parallel: 2,
		taskHook: chaosTaskOK,
		Preload:  []*models.ModelFile{lmoFile(key)}, // the tune job's model
	})
	for _, ep := range []struct{ path, body string }{
		{"/estimate", `{"cluster":"table1","nodes":4,"profile":"ideal","seeds":[1,2,3]`},
		{"/tune", `{"cluster":"table1","nodes":4,"msg_sizes":[1024]`},
	} {
		for _, tc := range []struct {
			parallel string
			status   int
			workers  int
		}{
			{`,"parallel":3}`, http.StatusBadRequest, 0},
			{`,"parallel":100000}`, http.StatusBadRequest, 0},
			{`,"parallel":1}`, http.StatusAccepted, 1},
			{`}`, http.StatusAccepted, 2},
		} {
			jobs := s.jobs.Len()
			st, _, body := rawPost(t, ts.URL+ep.path, ep.body+tc.parallel)
			if st != tc.status {
				t.Fatalf("%s %s: status %d, want %d: %s", ep.path, tc.parallel, st, tc.status, body)
			}
			if st != http.StatusAccepted {
				if s.jobs.Len() != jobs {
					t.Fatalf("%s %s: a refused request started a job", ep.path, tc.parallel)
				}
				continue
			}
			var job Job
			if err := json.Unmarshal(body, &job); err != nil {
				t.Fatal(err)
			}
			if job.Parallel != tc.workers {
				t.Fatalf("%s %s: job runs %d workers, want %d", ep.path, tc.parallel, job.Parallel, tc.workers)
			}
			waitFor(t, "job terminal", func() bool {
				j, ok := getJob(t, ts.URL, job.ID)
				return ok && j.State != JobRunning
			})
			if j, _ := getJob(t, ts.URL, job.ID); j.State != JobDone || j.Error != "" {
				t.Fatalf("%s %s: job %+v", ep.path, tc.parallel, j)
			}
		}
	}
}

// TestChaosMidJobShutdownPersistsManifest wedges a job and drains past
// the deadline: the unfinished job's manifest is persisted, the job is
// forced terminal (nothing is left running), and a restarted server
// reports the interrupted work.
func TestChaosMidJobShutdownPersistsManifest(t *testing.T) {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	manifest := t.TempDir() + "/manifest.json"
	s, ts := testServer(t, Config{
		ManifestPath: manifest,
		taskHook: func(g campaign.Grid, tk campaign.Task) campaign.Result {
			<-gate
			return chaosTaskOK(g, tk)
		},
	})

	var job Job
	status, body := postJSON(t, ts.URL+"/estimate",
		map[string]any{"cluster": "table1", "nodes": 4, "profile": "ideal"}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("POST /estimate: status %d: %s", status, body)
	}
	waitFor(t, "job running", func() bool { return s.jobs.RunningCount() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if err == nil || !strings.Contains(err.Error(), "drain deadline expired") {
		t.Fatalf("Shutdown past a wedged job = %v, want drain-deadline error", err)
	}

	// No job is left in the running state after Shutdown returns.
	if got := s.jobs.Running(); len(got) != 0 {
		t.Fatalf("jobs still running after shutdown: %+v", got)
	}
	j, _ := getJob(t, ts.URL, job.ID)
	if j.State == JobRunning {
		t.Fatalf("job %s still running after shutdown", job.ID)
	}

	m, err := ReadManifest(manifest)
	if err != nil || m == nil {
		t.Fatalf("manifest not persisted: %v", err)
	}
	if len(m.Jobs) != 1 || m.Jobs[0].ID != job.ID || m.Jobs[0].State != JobRunning {
		t.Fatalf("manifest = %+v, want the interrupted job in running state", m)
	}

	// A restarted process reports the interrupted work.
	s2, err := New(context.Background(), Config{ManifestPath: manifest})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Interrupted(); len(got) != 1 || got[0].ID != job.ID {
		t.Fatalf("Interrupted() = %+v, want the manifest's job", got)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	var out healthState
	if st := getJSON(t, ts2.URL+"/healthz", &out); st != http.StatusOK || len(out.Interrupted) != 1 {
		t.Fatalf("restart healthz: status %d body %+v, want interrupted job listed", st, out)
	}
}

// TestChaosCleanDrain drains an idle server and checks the contract:
// Shutdown returns nil, /readyz flips to 503 draining, estimation work
// is refused, and cached predictions keep answering.
func TestChaosCleanDrain(t *testing.T) {
	preKey := Key{Cluster: "table1", Nodes: 8, Profile: cluster.LAM().Name, Seed: 1}
	s, ts := testServer(t, Config{
		Preload:  []*models.ModelFile{fakeFile(preKey)},
		taskHook: chaosTaskOK,
	})

	var job Job
	status, _ := postJSON(t, ts.URL+"/estimate",
		map[string]any{"cluster": "table1", "nodes": 4, "profile": "ideal"}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("POST /estimate: status %d", status)
	}
	waitFor(t, "job terminal", func() bool {
		j, ok := getJob(t, ts.URL, job.ID)
		return ok && j.State != JobRunning
	})
	if st := getJSON(t, ts.URL+"/readyz", nil); st != http.StatusOK {
		t.Fatalf("readyz before drain: status %d, want 200", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("clean drain: %v", err)
	}

	if st := getJSON(t, ts.URL+"/readyz", nil); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", st)
	}
	var health healthState
	if st := getJSON(t, ts.URL+"/healthz", &health); st != http.StatusOK || !health.Draining {
		t.Fatalf("healthz during drain: status %d %+v, want 200 draining", st, health)
	}

	// New estimation work is refused...
	if st, _, body := rawPost(t, ts.URL+"/estimate",
		`{"cluster":"table1","nodes":4,"profile":"lam"}`); st != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), `"code": "draining"`) {
		t.Fatalf("estimate during drain: status %d body %s, want 503 draining", st, body)
	}
	if st, _, body := rawPost(t, ts.URL+"/predict",
		`{"cluster":"table1","nodes":5,"profile":"ideal","op":"gather","m":1024}`); st != http.StatusServiceUnavailable {
		t.Fatalf("predict miss during drain: status %d body %s, want 503", st, body)
	}
	// ...but cached reads keep answering.
	if st, _, body := rawPost(t, ts.URL+"/predict",
		`{"cluster":"table1","nodes":8,"profile":"lam","op":"scatter","m":1024}`); st != http.StatusOK ||
		!strings.Contains(string(body), `"cache":"hit"`) {
		t.Fatalf("cached predict during drain: status %d body %s", st, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var expo bytes.Buffer
	expo.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(expo.String(), "serve_draining 1") {
		t.Fatalf("exposition missing serve_draining 1:\n%s", expo.String())
	}
}

// TestChaosSnapshotChurnKeepsReadsStable hammers the lock-free read
// path while a writer churns the copy-on-write registry through inserts
// and LRU evictions: readers must never observe a partially published
// snapshot (a nil entry, a half-built predictor set) and cache-hit HTTP
// responses must stay byte-identical throughout. Run under -race
// -count=2 by the chaos CI job.
func TestChaosSnapshotChurnKeepsReadsStable(t *testing.T) {
	hot := Key{Cluster: "table1", Nodes: 8, Profile: cluster.LAM().Name, Seed: 1}
	s, ts := testServer(t, Config{
		Capacity: 2,
		Preload:  []*models.ModelFile{fakeFile(hot)},
		taskHook: chaosTaskOK,
	})

	// Reference bytes for a cache-hit read of the hot key.
	body := `{"cluster":"table1","nodes":8,"profile":"lam","op":"scatter","m":1024}`
	refStatus, _, ref := rawPost(t, ts.URL+"/predict", body)
	if refStatus != http.StatusOK || !strings.Contains(string(ref), `"cache":"hit"`) {
		t.Fatalf("reference read: status %d body %s", refStatus, ref)
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() { // churn: fresh keys force eviction scans and snapshot swaps
		defer close(writerDone)
		for seed := int64(100); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			k := Key{Cluster: "table1", Nodes: 8, Profile: cluster.LAM().Name, Seed: seed}
			if _, err := s.reg.Put(fakeFile(k)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(50 * time.Microsecond) // let readers interleave
		}
	}()

	const readers, reads = 4, 100
	httpErrs := make(chan string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				// Direct snapshot reads: an entry must always be fully
				// formed, however mid-eviction the writer is.
				if e, ok := s.reg.LookupHit(hot); ok {
					if e.Hom == nil || e.preds[famHockney] == nil {
						httpErrs <- "LookupHit returned a partially built entry"
						return
					}
				}
				st, _, got := rawPost(t, ts.URL+"/predict", body)
				if st != http.StatusOK {
					httpErrs <- "predict status " + http.StatusText(st)
					return
				}
				if strings.Contains(string(got), `"cache":"hit"`) && !bytes.Equal(got, ref) {
					httpErrs <- "cache-hit response not byte-stable:\n" + string(got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-writerDone
	select {
	case msg := <-httpErrs:
		t.Fatal(msg)
	default:
	}
	st := s.reg.Stats()
	if st.Evictions == 0 {
		t.Fatal("churn produced no evictions; the test exercised nothing")
	}
	if st.Swaps == 0 || s.reg.Swaps() == 0 {
		t.Fatalf("no snapshot swaps recorded: %+v", st)
	}
}

// TestChaosBatchOverloadShedsPerItem wedges the single estimation slot
// and checks the batch degradation contract: rows on cached platforms
// keep answering from the hit path while rows needing estimation come
// back as typed per-item shed errors — the batch itself stays 200 and
// byte-stable, and the shed is counted once per batch.
func TestChaosBatchOverloadShedsPerItem(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	preKey := Key{Cluster: "table1", Nodes: 8, Profile: cluster.LAM().Name, Seed: 1}
	s, ts := testServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      -1, // no queue: batch misses shed immediately
		RetryAfter:    2 * time.Second,
		Preload:       []*models.ModelFile{fakeFile(preKey)},
		taskHook: func(g campaign.Grid, tk campaign.Task) campaign.Result {
			<-gate
			return chaosTaskOK(g, tk)
		},
	})
	t.Cleanup(release) // runs before ts.Close, as above

	// A slow unary miss occupies the only estimation slot.
	slow := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/predict", "application/json",
			strings.NewReader(`{"cluster":"table1","nodes":4,"profile":"ideal","op":"gather","m":1024}`))
		if err != nil {
			slow <- -1
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	waitFor(t, "slot occupied", func() bool { return s.adm.InFlight() == 1 })

	batch := `{"cluster":"table1","nodes":8,"profile":"lam","seed":1,"op":"scatter","m":1024,` +
		`"queries":[{},{"nodes":5,"profile":"ideal"},{"m":4096}]}`
	st1, _, body1 := rawPost(t, ts.URL+"/predict", batch)
	if st1 != http.StatusOK {
		t.Fatalf("batch during overload: status %d body %s, want 200", st1, body1)
	}
	got := string(body1)
	if !strings.Contains(got, `"errors":1`) {
		t.Fatalf("batch envelope should report 1 failed row: %s", got)
	}
	if !strings.Contains(got, `"code":"shed"`) {
		t.Fatalf("missing typed per-item shed error: %s", got)
	}
	if strings.Count(got, `"cache":"hit"`) != 2 {
		t.Fatalf("cached rows should keep answering during overload: %s", got)
	}
	st2, _, body2 := rawPost(t, ts.URL+"/predict", batch)
	if st2 != st1 || !bytes.Equal(body1, body2) {
		t.Fatalf("overloaded batch responses not byte-stable:\n%s\n%s", body1, body2)
	}
	if gotShed := int64(s.metrics.shed.Value("predict")); gotShed != 2 {
		t.Fatalf("serve_shed_total{predict} = %d, want 2 (one per batch)", gotShed)
	}

	release()
	if st := <-slow; st != http.StatusOK {
		t.Fatalf("slow predict after release: status %d", st)
	}
}
