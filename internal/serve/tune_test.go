package serve

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/stats"
	"repro/internal/tuned"
)

// lmoFile builds a servable model file carrying a hand-built LMO model
// (with gather irregularity) so /tune jobs skip the estimation phase.
func lmoFile(k Key) *models.ModelFile {
	x := models.NewLMOX(k.Nodes)
	for i := 0; i < k.Nodes; i++ {
		x.C[i] = 5e-5
		x.T[i] = 4e-9
		for j := 0; j < k.Nodes; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	x.Gather = models.GatherEmpirical{
		M1: 4 << 10, M2: 65 << 10,
		EscModes: []stats.Mode{{Value: 0.2, Count: 7}, {Value: 0.25, Count: 3}},
		ProbLow:  0.1, ProbHigh: 0.5,
	}
	mf := models.NewModelFile(nil, nil, nil, nil, nil, x)
	mf.Meta = &models.Meta{Cluster: k.Cluster, Nodes: k.Nodes, Profile: k.Profile, Seed: k.Seed}
	return mf
}

// TestTuneEndToEnd drives the full /tune flow: POST launches an async
// job against the preloaded platform model, /jobs tracks it, and the
// GET read path serves the published decision table and per-query
// decisions.
func TestTuneEndToEnd(t *testing.T) {
	// Registry keys carry the profile's display name, not the request
	// identifier: preload under the resolved key so the tune job's
	// GetOrEstimate is a cache hit.
	key := Key{Cluster: "table1", Nodes: 8, Profile: "LAM 7.1.3", Seed: 1}
	_, ts := testServer(t, Config{Parallel: 2, Preload: []*models.ModelFile{lmoFile(key)}})

	// Untuned platform: the read path 404s with a pointer to POST.
	if st := getJSON(t, ts.URL+"/tune?cluster=table1&nodes=8&profile=lam&seed=1", nil); st != http.StatusNotFound {
		t.Fatalf("GET /tune before tuning: status %d, want 404", st)
	}

	var job Job
	status, body := postJSON(t, ts.URL+"/tune", map[string]any{
		"cluster": "table1", "nodes": 8, "profile": "lam", "seed": 1,
		"msg_sizes": []int{1 << 10, 8 << 10, 48 << 10},
	}, &job)
	if status != http.StatusAccepted {
		t.Fatalf("POST /tune: status %d: %s", status, body)
	}
	if job.Estimator != "tune" || job.State != JobRunning {
		t.Fatalf("unexpected job snapshot: %+v", job)
	}

	deadline := time.Now().Add(time.Minute)
	for job.State == JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("tune job did not finish: %+v", job)
		}
		time.Sleep(20 * time.Millisecond)
		if st := getJSON(t, ts.URL+"/jobs/"+job.ID, &job); st != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", job.ID, st)
		}
	}
	if job.State != JobDone || job.Error != "" {
		t.Fatalf("tune job failed: %+v", job)
	}
	if job.Metrics != nil {
		t.Fatalf("a done tune job carries no metrics, got %v", job.Metrics)
	}
	if len(job.ModelKeys) != 1 || job.ModelKeys[0] != key.String() {
		t.Fatalf("job should name the tuned platform key: %+v", job.ModelKeys)
	}

	// Full-table read.
	var full struct {
		Key   string      `json:"key"`
		Table tuned.Table `json:"table"`
	}
	if st := getJSON(t, ts.URL+"/tune?cluster=table1&nodes=8&profile=lam&seed=1", &full); st != http.StatusOK {
		t.Fatalf("GET /tune after tuning: status %d", st)
	}
	if full.Key != key.String() || full.Table.Version != tuned.TableVersion || len(full.Table.Rules) == 0 {
		t.Fatalf("table read malformed: %+v", full)
	}
	if err := full.Table.Validate(); err != nil {
		t.Fatal(err)
	}

	// Point decision read.
	var dec TuneDecision
	if st := getJSON(t, ts.URL+"/tune?cluster=table1&nodes=8&profile=lam&seed=1&op=gather&m=49152", &dec); st != http.StatusOK {
		t.Fatalf("GET /tune decision: status %d", st)
	}
	if dec.Alg == "" || dec.Shape == "" || dec.SimS <= 0 {
		t.Fatalf("decision malformed: %+v", dec)
	}
}

func TestTuneValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []map[string]any{
		{"cluster": "nope"},
		{"cluster": "table1", "nodes": 8, "top_k": -1},
		{"cluster": "table1", "nodes": 8, "msg_sizes": []int{0}},
	}
	for i, body := range cases {
		if st, _ := postJSON(t, ts.URL+"/tune", body, nil); st != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, st)
		}
	}
	if st := getJSON(t, ts.URL+"/tune?nodes=banana", nil); st != http.StatusBadRequest {
		t.Fatalf("bad nodes: status %d, want 400", st)
	}
	// op query without a size is rejected only once a table exists;
	// missing tables dominate here.
	if st := getJSON(t, ts.URL+"/tune?cluster=table1&nodes=8&op=gather", nil); st != http.StatusNotFound {
		t.Fatalf("decision read on untuned platform: status %d, want 404", st)
	}
}

// The snapshot store publishes immutable maps: a reader holding the
// old snapshot is never affected by a concurrent put.
func TestTableStoreSnapshotIsolation(t *testing.T) {
	ts := newTableStore()
	k1 := Key{Cluster: "table1", Nodes: 8, Profile: "lam", Seed: 1}
	k2 := Key{Cluster: "table1", Nodes: 8, Profile: "lam", Seed: 2}
	t1 := &tuned.Table{Version: tuned.TableVersion}
	old := *ts.snap.Load()
	ts.put(k1, t1)
	if len(old) != 0 {
		t.Fatal("put mutated the published snapshot")
	}
	if got, ok := ts.get(k1); !ok || got != t1 {
		t.Fatal("get should see the new snapshot")
	}
	ts.put(k2, &tuned.Table{Version: tuned.TableVersion})
	if n := len(*ts.snap.Load()); n != 2 {
		t.Fatalf("snapshot holds %d tables, want 2", n)
	}
}
