package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/models"
)

// Config parameterizes the service.
type Config struct {
	// Capacity bounds the model registry (LRU; default 64 entries).
	Capacity int
	// Parallel is the worker count of each /estimate and /tune job,
	// and the most a request's parallel may ask for: a larger one is
	// refused with 400 (<=0: GOMAXPROCS).
	Parallel int
	// TaskTimeout bounds each estimation task's wall-clock time
	// (default 5 minutes).
	TaskTimeout time.Duration
	// RequestTimeout is the per-request deadline, propagated as a
	// context through admission queueing and synchronous estimation
	// into campaign tasks (default 5 minutes; <0 disables).
	RequestTimeout time.Duration
	// MaxConcurrent bounds concurrent synchronous estimations — the
	// /predict miss path (default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an estimation slot; beyond
	// it requests are shed with 429 (default 16).
	MaxQueue int
	// RetryAfter is the hint attached to shed responses (default 1s).
	RetryAfter time.Duration
	// MaxRunningJobs bounds concurrent /estimate campaigns; beyond it
	// jobs are shed with 429 (default 4).
	MaxRunningJobs int
	// MaxJobs bounds the job table; terminal jobs are evicted
	// oldest-first beyond it (default 256).
	MaxJobs int
	// JobTTL evicts terminal jobs this long after completion
	// (default 1h; <0 disables).
	JobTTL time.Duration
	// MaxBodyBytes caps request bodies; larger ones get 413, however
	// early their JSON value ends (default 1 MiB).
	MaxBodyBytes int64
	// Breaker configures the per-key estimation circuit breakers.
	Breaker BreakerConfig
	// Seed seeds the deterministic retry-backoff jitter (default 1).
	Seed int64
	// ManifestPath, when set, is where a drain that misses its
	// deadline persists the unfinished-job manifest, and where startup
	// looks for one left by a previous process.
	ManifestPath string
	// Preload seeds the registry with model files (from
	// cmd/estimate -json); each must carry provenance metadata.
	Preload []*models.ModelFile

	// now and sleep, when set, replace the real clock and retry sleep —
	// the chaos suite's determinism hooks.
	now   func() time.Duration
	sleep func(context.Context, time.Duration) bool
	// taskHook, when set, replaces the campaign task executor for
	// every campaign the server runs (fault injection in tests).
	taskHook func(campaign.Grid, campaign.Task) campaign.Result
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 64
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = 5 * time.Minute
	}
	switch {
	case c.RequestTimeout < 0:
		c.RequestTimeout = 0
	case c.RequestTimeout == 0:
		c.RequestTimeout = 5 * time.Minute
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRunningJobs <= 0 {
		c.MaxRunningJobs = 4
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	switch {
	case c.JobTTL < 0:
		c.JobTTL = 0
	case c.JobTTL == 0:
		c.JobTTL = time.Hour
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Server is the lmoserve HTTP service.
type Server struct {
	ctx         context.Context
	cancel      context.CancelFunc
	reg         *Registry
	tables      *tableStore
	jobs        *Jobs
	adm         *admission
	metrics     *Metrics
	mux         *http.ServeMux
	cfg         Config
	draining    atomic.Bool
	interrupted []Job
}

// New builds the service; ctx bounds the lifetime of background
// estimation jobs (Shutdown cancels the derived server context).
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	now := cfg.now
	if now == nil {
		now = realNow()
	}
	sleep := cfg.sleep
	if sleep == nil {
		sleep = realSleep
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Server{
		ctx:    sctx,
		cancel: cancel,
		jobs: NewJobs(JobsConfig{
			MaxRunning: cfg.MaxRunningJobs,
			MaxJobs:    cfg.MaxJobs,
			TTL:        cfg.JobTTL,
			Now:        now,
			RetryAfter: cfg.RetryAfter,
		}),
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.RetryAfter),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		tables:  newTableStore(),
		cfg:     cfg,
	}
	s.reg = NewRegistry(cfg.Capacity, s.estimateKey, RegistryOptions{
		Breaker: cfg.Breaker,
		Seed:    cfg.Seed,
		Now:     now,
		Sleep:   sleep,
	})
	for _, mf := range cfg.Preload {
		if err := s.preload(mf); err != nil {
			cancel()
			return nil, fmt.Errorf("serve: preloading models: %w", err)
		}
	}
	if cfg.ManifestPath != "" {
		m, err := ReadManifest(cfg.ManifestPath)
		if err != nil {
			cancel()
			return nil, err
		}
		if m != nil {
			s.interrupted = m.Jobs
		}
	}
	s.handle("/predict", "predict", s.withTimeout(s.handlePredict))
	s.handle("/estimate", "estimate", s.withTimeout(s.handleEstimate))
	s.handle("/tune", "tune", s.withTimeout(s.handleTune))
	s.handle("/jobs", "jobs", s.handleJobs)
	s.handle("/jobs/", "jobs", s.handleJobs)
	s.handle("/models", "models", s.handleModels)
	s.handle("/metrics", "metrics", s.handleMetrics)
	s.handle("/healthz", "healthz", s.handleHealthz)
	s.handle("/readyz", "readyz", s.handleReadyz)
	return s, nil
}

// handle registers the full middleware chain for one endpoint:
// instrumentation outermost (so panics are recorded with their 500s),
// then panic recovery, then the handler.
func (s *Server) handle(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(name, s.recovered(h)))
}

// withTimeout applies the per-request deadline; the derived context
// flows through admission queueing, singleflight waits and campaign
// task execution.
func (s *Server) withTimeout(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.RequestTimeout <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the model store (for preloading and tests).
func (s *Server) Registry() *Registry { return s.reg }

// statusRecorder captures the response status for metrics and whether
// anything was written (so panic recovery knows if a 500 can still be
// sent).
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.wrote = true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true
	return sr.ResponseWriter.Write(b)
}

func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.metrics.Observe(name, rec.status, time.Since(start))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the typed error payload of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// httpErrorCode writes a typed error body with a machine-readable code.
func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// retrySeconds is a Retry-After hint in whole seconds: d rounded up,
// at least 1.
func retrySeconds(d time.Duration) int64 {
	return max(int64((d+time.Second-1)/time.Second), 1)
}

// platformRequest selects the simulated platform a request refers to.
type platformRequest struct {
	Cluster string `json:"cluster"` // default "table1"
	Nodes   int    `json:"nodes"`   // default: the cluster's full size
	Profile string `json:"profile"` // default "lam"
	Seed    int64  `json:"seed"`    // default 1
}

// namedCluster is a cluster a platform may name: how to build it, and
// its full size, known without building it.
type namedCluster struct {
	build func() *cluster.Cluster
	n     int
}

var namedClusters = map[string]namedCluster{
	"table1":       {cluster.Table1, cluster.Table1().N()},
	"table1hetero": {cluster.Table1Hetero, cluster.Table1Hetero().N()},
}

// profileNames maps the TCP profiles a platform may name to the
// display names registry keys carry.
var profileNames = map[string]string{
	"lam":   cluster.LAM().Name,
	"mpich": cluster.MPICH().Name,
	"ideal": cluster.Ideal().Name,
}

// canonicalProfile resolves a TCP profile, named as a platform names it
// ("lam") or as registry keys carry it ("LAM 7.1.3"), to the name keys
// carry.
func canonicalProfile(name string) (string, bool) {
	if display, ok := profileNames[name]; ok {
		return display, true
	}
	// The display names are distinct: at most one matches.
	//lmovet:commutative
	for _, display := range profileNames {
		if display == name {
			return display, true
		}
	}
	return "", false
}

// preload puts a model file on the registry under the key a request
// for its platform resolves to: the profile its meta names, as a
// request names it or as keys carry it, becomes the name keys carry,
// and an unknown profile is refused. The caller's file is not changed.
func (s *Server) preload(mf *models.ModelFile) error {
	if mf.Meta != nil {
		prof, ok := canonicalProfile(mf.Meta.Profile)
		if !ok {
			return fmt.Errorf("unknown profile %q in the model file's meta (lam, mpich, ideal)", mf.Meta.Profile)
		}
		meta := *mf.Meta
		meta.Profile = prof
		cp := *mf
		cp.Meta = &meta
		mf = &cp
	}
	_, err := s.reg.Put(mf)
	return err
}

// key validates the platform and returns its registry key. It builds
// neither the cluster nor the profile: build does, for the paths that
// estimate.
func (p platformRequest) key() (Key, error) {
	name := cmp.Or(p.Cluster, "table1")
	nc, ok := namedClusters[name]
	if !ok {
		return Key{}, fmt.Errorf("unknown cluster %q (table1, table1hetero)", name)
	}
	nodes := cmp.Or(p.Nodes, nc.n)
	if nodes < 3 || nodes > nc.n {
		return Key{}, fmt.Errorf("nodes must be in [3, %d]", nc.n)
	}
	profName := cmp.Or(p.Profile, "lam")
	prof, ok := profileNames[profName]
	if !ok {
		return Key{}, fmt.Errorf("unknown profile %q (lam, mpich, ideal)", profName)
	}
	return Key{Cluster: name, Nodes: nodes, Profile: prof, Seed: cmp.Or(p.Seed, 1)}, nil
}

// build validates the platform like key and also builds what an
// estimation runs on: the named cluster's prefix and the TCP profile.
func (p platformRequest) build() (Key, campaign.ClusterSpec, *cluster.TCPProfile, error) {
	key, err := p.key()
	if err != nil {
		return Key{}, campaign.ClusterSpec{}, nil, err
	}
	prof, err := cluster.ParseProfile(cmp.Or(p.Profile, "lam"))
	if err != nil {
		return Key{}, campaign.ClusterSpec{}, nil, err
	}
	cl := namedClusters[key.Cluster].build().Prefix(key.Nodes)
	return key, campaign.ClusterSpec{Name: key.Cluster, Cluster: cl}, prof, nil
}

// keyPlatform reconstructs the platform of a registry key (used by the
// registry's estimator callback): the profile's display name, which
// keys carry, maps back through profileNames to the name a request
// gives it.
func keyPlatform(k Key) platformRequest {
	p := platformRequest{Cluster: k.Cluster, Nodes: k.Nodes, Profile: k.Profile, Seed: k.Seed}
	// The display names are distinct: at most one matches.
	//lmovet:commutative
	for name, display := range profileNames {
		if display == k.Profile {
			p.Profile = name
		}
	}
	return p
}

// estimateKey is the registry's miss path: estimate every model family
// for the key's platform in a one-task campaign (panic capture and
// task timeout included). The caller's context — carrying the
// per-request deadline — bounds the campaign end to end.
func (s *Server) estimateKey(ctx context.Context, k Key) (*models.ModelFile, error) {
	_, spec, prof, err := keyPlatform(k).build()
	if err != nil {
		return nil, err
	}
	g := campaign.Grid{
		Seeds:    []int64{k.Seed},
		Profiles: []*cluster.TCPProfile{prof},
		Clusters: []campaign.ClusterSpec{spec},
		Targets:  []campaign.Target{{Kind: campaign.Estimator, ID: "all"}},
	}
	out, err := campaign.Run(ctx, g, campaign.Options{
		Parallel:    1,
		TaskTimeout: s.cfg.TaskTimeout,
		RunTask:     s.cfg.taskHook,
	})
	if err != nil {
		return nil, err
	}
	r := out.Results[0]
	if r.Err != "" {
		return nil, fmt.Errorf("estimation failed: %s", r.Err)
	}
	return r.Models, nil
}
