package serve

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/estimate"
)

// workError classifies a failed piece of work the way a response
// reports it: the HTTP status, a machine-readable code, the message,
// and, for a refusal that clears by itself, the Retry-After hint in
// whole seconds (0 for none). Load shedding is 429 "shed" and an open
// circuit 503 "breaker_open", both with the hint; drain is 503
// "draining", an expired request deadline 504 "deadline", a cancelled
// request 503 "cancelled", and anything else 500 "error".
func workError(err error) (status int, code, msg string, retryAfter int64) {
	var shed *ShedError
	var open *BreakerOpenError
	var draining *DrainingError
	switch {
	case errors.As(err, &shed):
		return http.StatusTooManyRequests, "shed", shed.Error(), retrySeconds(shed.RetryAfter)
	case errors.As(err, &open):
		return http.StatusServiceUnavailable, "breaker_open", open.Error(), retrySeconds(open.RetryAfter)
	case errors.As(err, &draining):
		return http.StatusServiceUnavailable, "draining", draining.Error(), 0
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline", "request deadline exceeded", 0
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "cancelled", "request cancelled", 0
	}
	return http.StatusInternalServerError, "error", err.Error(), 0
}

// writeWorkError answers a request whose work failed, as workError
// classifies it, and counts a shed request under its endpoint. A 500's
// body carries its message alone: "error" is no typed code.
func (s *Server) writeWorkError(w http.ResponseWriter, endpoint string, err error) {
	status, code, msg, retryAfter := workError(err)
	if code == "shed" {
		s.metrics.Shed(endpoint)
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfter, 10))
	}
	if code == "error" {
		code = ""
	}
	writeJSON(w, status, errorBody{Error: msg, Code: code})
}

// PredictRequest asks for one collective's predicted time on a
// platform — or, when Queries is present, for a whole batch of them
// with the top-level fields acting as shared defaults; a request
// without Queries is answered as a batch of one row that sets nothing
// (batch.go). A registry miss estimates the platform's models first
// (deduped across concurrent requests, admission-controlled, and
// circuit-broken per platform).
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

// PredictResponse is the shape of one /predict answer: a unary
// request's body, and each answered item of a batch's results. The
// handler renders it by hand (appendItem, AppendAnswer), compact and
// with the predictions in family order; this type documents the shape
// and decodes it.
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

// EstimateRequest launches an asynchronous estimation campaign.
type EstimateRequest struct {
	platformRequest
	// Seeds to estimate; default {seed} (or {1}).
	Seeds []int64 `json:"seeds"`
	// Estimator names the family of the estimation table to estimate,
	// one whose models a model file carries (estimate.Families(true));
	// default "all".
	Estimator string `json:"estimator"`
	// Parallel is the campaign worker count; default and maximum: the
	// server's (Config.Parallel), and a larger value is refused.
	Parallel int `json:"parallel"`
}

// jobParallel resolves a job request's worker count against the
// server's, Config.Parallel or else GOMAXPROCS: an unset (<= 0) value
// takes the server's, and a larger one is refused with a 400, so no
// request body starts more simulations at once than that.
func (s *Server) jobParallel(w http.ResponseWriter, parallel int) (int, bool) {
	limit := s.cfg.Parallel
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if parallel > limit {
		httpError(w, http.StatusBadRequest, "parallel %d exceeds the server's %d workers", parallel, limit)
		return 0, false
	}
	if parallel <= 0 {
		return limit, true
	}
	return parallel, true
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
	parallel, ok := s.jobParallel(w, req.Parallel)
	if !ok {
		return
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
