package serve

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/models"
)

// writeWorkError maps the robustness layer's typed failures to HTTP:
// load shedding to 429 + Retry-After, an open circuit to 503 +
// Retry-After, drain to 503, an expired request deadline to 504.
// Anything else is a 500.
func (s *Server) writeWorkError(w http.ResponseWriter, endpoint string, err error) {
	var shed *ShedError
	if errors.As(err, &shed) {
		s.metrics.Shed(endpoint)
		retryAfterHeader(w, shed.RetryAfter)
		httpErrorCode(w, http.StatusTooManyRequests, "shed", "%v", shed)
		return
	}
	var open *BreakerOpenError
	if errors.As(err, &open) {
		retryAfterHeader(w, open.RetryAfter)
		httpErrorCode(w, http.StatusServiceUnavailable, "breaker_open", "%v", open)
		return
	}
	var draining *DrainingError
	if errors.As(err, &draining) {
		httpErrorCode(w, http.StatusServiceUnavailable, "draining", "%v", draining)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) {
		httpErrorCode(w, http.StatusGatewayTimeout, "deadline", "request deadline exceeded")
		return
	}
	if errors.Is(err, context.Canceled) {
		httpErrorCode(w, http.StatusServiceUnavailable, "cancelled", "request cancelled")
		return
	}
	httpError(w, http.StatusInternalServerError, "%v", err)
}

// PredictRequest asks for one collective's predicted time on a
// platform — or, when Queries is present, for a whole batch of them
// with the top-level fields acting as shared defaults. A registry miss
// estimates the platform's models first (deduped across concurrent
// requests, admission-controlled, and circuit-broken per platform).
type PredictRequest struct {
	platformRequest
	Op   string `json:"op"`   // "scatter", "gather", "bcast" or "reduce"
	Alg  string `json:"alg"`  // "linear" (default), "binomial", "binary" or "chain"
	M    int    `json:"m"`    // block size in bytes
	Root int    `json:"root"` // collective root rank
	// Degree, when >= 2, replaces the binary algorithm's tree with a
	// k-ary tree of that degree (models.Query.Degree).
	Degree int `json:"degree"`
	// Segment, when in (0, m), splits the block into ceil(m/segment)
	// back-to-back pieces (models.Query.Segment).
	Segment int `json:"segment"`

	// Queries switches the request to batch mode: each row inherits
	// the top-level fields and overrides any it sets (the runfile
	// idiom: globals, then rows). See batch.go.
	Queries []BatchQuery `json:"queries,omitempty"`
}

// PredictResponse reports the per-model predictions.
type PredictResponse struct {
	Key         string             `json:"key"`
	Cache       string             `json:"cache"` // "hit", "estimated" or "joined"
	Op          string             `json:"op"`
	Alg         string             `json:"alg"`
	M           int                `json:"m"`
	Nodes       int                `json:"nodes"`
	Root        int                `json:"root"`
	Degree      int                `json:"degree,omitempty"`  // echoed when set
	Segment     int                `json:"segment,omitempty"` // echoed when set
	Predictions map[string]float64 `json:"predictions"`       // seconds, per model
	// BandLow/BandHigh bracket linear gather's escalation region when
	// the LMO empirical parameters cover m.
	BandLow  *float64 `json:"band_low,omitempty"`
	BandHigh *float64 `json:"band_high,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req PredictRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Queries != nil {
		s.handleBatchPredict(w, r, &req)
		return
	}
	key, err := req.key()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	row := QueryRow{Op: req.Op, Alg: req.Alg, M: req.M, Root: req.Root, Degree: req.Degree, Segment: req.Segment}
	q, err := row.Query(key.Nodes)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Cached platforms answer without touching admission: reads must
	// keep flowing whatever the estimation backlog looks like.
	if entry, ok := s.reg.LookupHit(key); ok {
		s.writePrediction(w, q, key, entry, "hit")
		return
	}

	// A registry miss is estimation work: refuse during drain, then
	// pass through admission control before occupying a worker.
	if s.draining.Load() {
		s.writeWorkError(w, "predict", &DrainingError{})
		return
	}
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.writeWorkError(w, "predict", err)
		return
	}
	defer release()
	entry, hit, err := s.reg.GetOrEstimate(r.Context(), key)
	if err != nil {
		s.writeWorkError(w, "predict", err)
		return
	}
	cache := "estimated"
	if hit {
		// A concurrent estimation landed between the lookup above and
		// GetOrEstimate: this request rode someone else's work.
		cache = "joined"
	}
	s.writePrediction(w, q, key, entry, cache)
}

// writePrediction renders the prediction response for a resolved
// entry. The predictions map comes from a pool and is reused across
// requests: the unary path allocates no fresh map per request
// (TestPredictAllReusesMap pins this).
func (s *Server) writePrediction(w http.ResponseWriter, q models.Query, key Key, entry *Entry, cache string) {
	preds := predMaps.Get().(map[string]float64)
	predictAll(entry, q, preds)
	resp := PredictResponse{
		Key: key.String(), Op: q.Coll.String(), Alg: q.Alg.String(), Cache: cache,
		M: q.M, Nodes: key.Nodes, Root: q.Root, Degree: q.Degree, Segment: q.Segment,
		Predictions: preds,
	}
	if lo, hi, ok := GatherBand(entry.LMO, q); ok {
		resp.BandLow, resp.BandHigh = &lo, &hi
	}
	s.metrics.Prediction(cache, "unary", 1)
	writeJSON(w, http.StatusOK, resp)
	clear(preds)
	predMaps.Put(preds)
}

// EstimateRequest launches an asynchronous estimation campaign.
type EstimateRequest struct {
	platformRequest
	// Seeds to estimate; default {seed} (or {1}).
	Seeds []int64 `json:"seeds"`
	// Estimator names the family of the estimation table to estimate,
	// one whose models a model file carries (estimate.Families(true));
	// default "all".
	Estimator string `json:"estimator"`
	// Parallel is the campaign worker count; default: the server's.
	Parallel int `json:"parallel"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req EstimateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	key, spec, prof, err := req.build()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []int64{key.Seed}
	}
	estimator := req.Estimator
	if estimator == "" {
		estimator = "all"
	}
	if fams := estimate.Families(true); !slices.Contains(fams, estimator) {
		httpError(w, http.StatusBadRequest,
			"estimator %q does not produce servable models (%s)", estimator, strings.Join(fams, ", "))
		return
	}
	parallel := req.Parallel
	if parallel <= 0 {
		parallel = s.cfg.Parallel
	}
	if s.draining.Load() {
		s.writeWorkError(w, "estimate", &DrainingError{})
		return
	}

	g := campaign.Grid{
		Seeds:    seeds,
		Profiles: []*cluster.TCPProfile{prof},
		Clusters: []campaign.ClusterSpec{spec},
		Targets:  []campaign.Target{{Kind: campaign.Estimator, ID: estimator}},
	}
	job := &Job{
		Cluster: key.Cluster, Nodes: key.Nodes, Profile: key.Profile,
		Seeds: seeds, Estimator: estimator, Parallel: parallel,
	}
	snap, err := s.jobs.Start(job, func(st *campaign.Stats) (*campaign.Outcome, []Key, error) {
		out, err := campaign.Run(s.ctx, g, campaign.Options{
			Parallel:    parallel,
			TaskTimeout: s.cfg.TaskTimeout,
			Stats:       st,
			RunTask:     s.cfg.taskHook,
		})
		if err != nil {
			return nil, nil, err
		}
		var keys []Key
		for _, res := range out.Results {
			if res.Err == "" && res.Models != nil {
				e, err := s.reg.Put(res.Models)
				if err != nil {
					return out, keys, err
				}
				keys = append(keys, e.Key)
			}
		}
		return out, keys, nil
	})
	if err != nil {
		s.writeWorkError(w, "estimate", err)
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs")
	id = strings.TrimPrefix(id, "/")
	if id == "" {
		payload := map[string]any{"jobs": s.jobs.List()}
		if len(s.interrupted) > 0 {
			payload["interrupted"] = s.interrupted
		}
		writeJSON(w, http.StatusOK, payload)
		return
	}
	job, ok := s.jobs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// modelInfo is one GET /models row.
type modelInfo struct {
	Key    string   `json:"key"`
	Models []string `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	entries := s.reg.Entries()
	infos := make([]modelInfo, 0, len(entries))
	for _, e := range entries {
		var present []string
		for i, p := range e.preds {
			if p != nil {
				present = append(present, familyNames[i])
			}
		}
		infos = append(infos, modelInfo{Key: e.Key.String(), Models: present})
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos, "capacity": s.reg.cap})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Prometheus text exposition by default (what a scraper expects of
	// /metrics); the structured JSON report on request.
	format := r.URL.Query().Get("format")
	if format == "json" || (format == "" && strings.Contains(r.Header.Get("Accept"), "application/json")) {
		writeJSON(w, http.StatusOK, s.metrics.Report(s.reg, s.jobs, s.adm, s.draining.Load()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.metrics.WritePrometheus(w, s.reg, s.jobs, s.adm, s.draining.Load())
}
