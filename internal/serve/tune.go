package serve

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/autotune"
	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/tuned"
)

// tableStore holds the auto-tuned decision tables, published with the
// registry's copy-on-write snapshot idiom: readers load an immutable
// map through an atomic pointer (the /tune read path never contends on
// a mutex), writers serialize, rebuild and swap.
type tableStore struct {
	snap atomic.Pointer[map[Key]*tuned.Table]
	mu   sync.Mutex
}

func newTableStore() *tableStore {
	ts := &tableStore{}
	empty := map[Key]*tuned.Table{}
	ts.snap.Store(&empty)
	return ts
}

// get answers from the current snapshot, lock-free.
func (ts *tableStore) get(k Key) (*tuned.Table, bool) {
	t, ok := (*ts.snap.Load())[k]
	return t, ok
}

// put publishes a fresh snapshot containing t.
func (ts *tableStore) put(k Key, t *tuned.Table) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	old := *ts.snap.Load()
	next := make(map[Key]*tuned.Table, len(old)+1)
	// Map-to-map copy: entries are independent, insertion order cannot
	// leak into the (unordered) result.
	//lmovet:commutative
	for key, tbl := range old {
		next[key] = tbl
	}
	next[k] = t
	ts.snap.Store(&next)
}

// TuneRequest launches an asynchronous auto-tuning job for a platform:
// estimate the platform's LMO model (or reuse the cached one), run the
// candidate prune + simulator validation pipeline, and publish the
// decision table on the /tune read path.
type TuneRequest struct {
	platformRequest
	// MsgSizes to probe; default: the tuner's irregular-region sweep.
	MsgSizes []int `json:"msg_sizes"`
	// TopK survivors of the closed-form prune per cell (default 3).
	TopK int `json:"top_k"`
	// Parallel is the validation pool's worker count; default and
	// maximum: the server's (Config.Parallel), and a larger value is
	// refused.
	Parallel int `json:"parallel"`
}

// TuneDecision is the per-query answer of the /tune read path.
type TuneDecision struct {
	Op      string  `json:"op"`
	M       int     `json:"m"`
	Alg     string  `json:"alg"`
	Degree  int     `json:"degree,omitempty"`
	Segment int     `json:"segment,omitempty"`
	Shape   string  `json:"shape"`
	PredS   float64 `json:"predicted_s,omitempty"`
	SimS    float64 `json:"simulated_s,omitempty"`
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleTuneGet(w, r)
	case http.MethodPost:
		s.handleTunePost(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleTuneGet serves a cached decision table (or a single decision
// when op and m are supplied) from the snapshot store.
func (s *Server) handleTuneGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p := platformRequest{Cluster: q.Get("cluster"), Profile: q.Get("profile")}
	if v := q.Get("nodes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad nodes %q", v)
			return
		}
		p.Nodes = n
	}
	if v := q.Get("seed"); v != "" {
		sd, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
		p.Seed = sd
	}
	key, err := p.key()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tbl, ok := s.tables.get(key)
	if !ok {
		httpErrorCode(w, http.StatusNotFound, "untuned",
			"no decision table for %s; POST /tune to build one", key)
		return
	}
	op := q.Get("op")
	if op == "" {
		writeJSON(w, http.StatusOK, map[string]any{"key": key.String(), "table": tbl})
		return
	}
	mStr := q.Get("m")
	m, err := strconv.Atoi(mStr)
	if err != nil || m < 0 {
		httpError(w, http.StatusBadRequest, "op queries need a block size: m=%q", mStr)
		return
	}
	rule, ok := tbl.Lookup(tuned.Op(op), m)
	if !ok {
		httpErrorCode(w, http.StatusNotFound, "uncovered",
			"table for %s has no %s rule covering %d bytes", key, op, m)
		return
	}
	writeJSON(w, http.StatusOK, TuneDecision{
		Op: op, M: m, Alg: rule.Alg, Degree: rule.Degree, Segment: rule.Segment,
		Shape: rule.String(), PredS: rule.PredictedS, SimS: rule.SimulatedS,
	})
}

// handleTunePost launches the tuning job, /estimate-style: 202 with a
// job snapshot, progress via /jobs/{id}, result on the GET read path.
func (s *Server) handleTunePost(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	key, spec, prof, err := req.build()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.TopK < 0 {
		httpError(w, http.StatusBadRequest, "top_k must be positive")
		return
	}
	for _, m := range req.MsgSizes {
		if m <= 0 {
			httpError(w, http.StatusBadRequest, "msg_sizes must be positive block sizes in bytes")
			return
		}
	}
	parallel, ok := s.jobParallel(w, req.Parallel)
	if !ok {
		return
	}
	if s.draining.Load() {
		s.writeWorkError(w, "tune", &DrainingError{})
		return
	}
	sizes := req.MsgSizes
	if len(sizes) == 0 {
		sizes = autotune.TuneSizes()
	}

	job := &Job{
		Cluster: key.Cluster, Nodes: key.Nodes, Profile: key.Profile,
		Seeds: []int64{key.Seed}, Estimator: "tune", Parallel: parallel,
	}
	snap, err := s.jobs.Start(job, func(st *campaign.Stats) (*campaign.Outcome, []Key, error) {
		// The tuner prunes with the platform's estimated LMO model:
		// reuse the registry entry when cached, estimate it first when
		// not (deduped and circuit-broken like any /predict miss).
		entry, _, err := s.reg.GetOrEstimate(s.ctx, key)
		if err != nil {
			return nil, nil, err
		}
		res, err := autotune.Tune(s.ctx, experiment.Config{
			Cluster: spec.Cluster, Profile: prof, Seed: key.Seed,
		}, entry.LMO, autotune.Options{
			MsgSizes:    sizes,
			TopK:        req.TopK,
			Parallel:    parallel,
			Stats:       st,
			ClusterName: key.Cluster,
		})
		if err != nil {
			return nil, nil, err
		}
		s.tables.put(key, res.Table)
		return res.Outcome, []Key{key}, nil
	})
	if err != nil {
		s.writeWorkError(w, "tune", err)
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}
