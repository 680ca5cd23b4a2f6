package serve

// Metrics is one of the serve package's approved wall-clock files (see
// internal/analysis/policy.go): it timestamps uptime and request
// latencies. Everything it renders is otherwise a deterministic
// function of the service's counters.

import (
	"io"
	"time"

	"repro/internal/obs"
)

// endpointStats accumulates request counts and latencies for one
// endpoint.
type endpointStats struct {
	Count   int64   `json:"count"`
	Errors  int64   `json:"errors"` // responses with status >= 400
	MeanMs  float64 `json:"mean_ms"`
	MaxMs   float64 `json:"max_ms"`
	totalMs float64
}

// Metrics aggregates the service's observability counters, backed by
// the obs metrics registry: one state feeds both the JSON report and
// the Prometheus text exposition of GET /metrics.
type Metrics struct {
	start time.Time
	reg   *obs.Registry

	requests *obs.CounterVec
	errors   *obs.CounterVec
	duration *obs.HistogramVec
	shed     *obs.CounterVec // serve_shed_total: load-shed requests
	panics   *obs.CounterVec // serve_panics_total: recovered handler panics

	// Prediction-path counters (batched /predict, PR 8).
	predictions *obs.CounterVec   // serve_predictions_total{cache,batch}
	batchSize   *obs.HistogramVec // serve_batch_size: queries per batch request

	// Gauges refreshed from the live service parts at render time.
	uptime        *obs.GaugeVec
	cacheEntries  *obs.GaugeVec
	cacheHits     *obs.GaugeVec
	cacheMisses   *obs.GaugeVec
	evictions     *obs.GaugeVec
	retries       *obs.GaugeVec
	rejected      *obs.GaugeVec
	snapshotSwaps *obs.GaugeVec // serve_registry_snapshot_swaps_total
	breakerState  *obs.GaugeVec
	breakerOpens  *obs.GaugeVec
	workers       *obs.GaugeVec
	busyWorkers   *obs.GaugeVec
	runningJobs   *obs.GaugeVec
	liveJobs      *obs.GaugeVec
	taskPanics    *obs.GaugeVec
	queueDepth    *obs.GaugeVec
	inflight      *obs.GaugeVec
	draining      *obs.GaugeVec
}

// NewMetrics builds an empty metrics table.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		start: time.Now(),
		reg:   reg,
		requests: reg.Counter("lmoserve_requests_total",
			"requests served, by endpoint", "endpoint"),
		errors: reg.Counter("lmoserve_request_errors_total",
			"responses with status >= 400, by endpoint", "endpoint"),
		duration: reg.Histogram("lmoserve_request_seconds",
			"request latency in seconds, by endpoint", obs.DefBuckets, "endpoint"),
		shed: reg.Counter("serve_shed_total",
			"requests refused by admission control (429), by endpoint", "endpoint"),
		panics: reg.Counter("serve_panics_total",
			"handler panics converted to 500 by the recovery middleware"),
		predictions: reg.Counter("serve_predictions_total",
			"predictions served, by cache outcome and request shape", "cache", "batch"),
		batchSize: reg.Histogram("serve_batch_size",
			"queries per batched /predict request", batchSizeBuckets),
		uptime: reg.Gauge("lmoserve_uptime_seconds",
			"seconds since the service started"),
		cacheEntries: reg.Gauge("lmoserve_cache_entries",
			"model registry entries resident"),
		cacheHits: reg.Gauge("lmoserve_cache_hits_total",
			"model registry lookups answered from the cache"),
		cacheMisses: reg.Gauge("lmoserve_cache_misses_total",
			"model registry lookups that triggered an estimation"),
		evictions: reg.Gauge("lmoserve_cache_evictions_total",
			"model registry entries dropped by the LRU bound"),
		retries: reg.Gauge("lmoserve_estimate_retries_total",
			"extra estimation attempts after a failed one"),
		rejected: reg.Gauge("lmoserve_breaker_rejected_total",
			"estimation lookups fast-failed by an open circuit"),
		snapshotSwaps: reg.Gauge("serve_registry_snapshot_swaps_total",
			"copy-on-write registry snapshots published"),
		breakerState: reg.Gauge("serve_breaker_state",
			"estimation circuit state per platform key (0 closed, 1 half-open, 2 open)", "key"),
		breakerOpens: reg.Gauge("serve_breaker_opens_total",
			"times the platform key's circuit has opened", "key"),
		workers: reg.Gauge("lmoserve_campaign_workers",
			"campaign workers across running estimation jobs"),
		busyWorkers: reg.Gauge("lmoserve_campaign_busy_workers",
			"campaign workers currently executing a task"),
		runningJobs: reg.Gauge("lmoserve_campaign_running_jobs",
			"estimation jobs in the running state"),
		liveJobs: reg.Gauge("serve_jobs_live",
			"jobs retained in the job table (bounded by TTL/LRU eviction)"),
		taskPanics: reg.Gauge("serve_task_panics_total",
			"campaign task panics captured across retained jobs"),
		queueDepth: reg.Gauge("serve_queue_depth",
			"requests waiting for an estimation slot"),
		inflight: reg.Gauge("serve_inflight_estimations",
			"estimation slots currently claimed"),
		draining: reg.Gauge("serve_draining",
			"1 while the server is draining, else 0"),
	}
	// Seed the robustness counters so they are visible in /metrics
	// before the first shed or panic.
	m.panics.Add(0)
	m.shed.Add(0, "predict")
	m.shed.Add(0, "estimate")
	// Seed every prediction label pair so the exposition (and the
	// stable-order JSON report) lists them from the first render.
	for _, cache := range []string{"hit", "estimated", "joined"} {
		m.predictions.Add(0, cache, "unary")
		m.predictions.Add(0, cache, "batch")
	}
	return m
}

// batchSizeBuckets bounds the serve_batch_size histogram: powers of
// four spanning a single query to the largest sane batch.
var batchSizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096}

// Prediction records n served predictions for a cache outcome ("hit",
// "estimated", "joined") and request shape ("unary", "batch").
func (m *Metrics) Prediction(cache, batch string, n int64) {
	if n > 0 {
		m.predictions.Add(float64(n), cache, batch)
	}
}

// BatchSize records the query count of one batched /predict request.
func (m *Metrics) BatchSize(n int) { m.batchSize.Observe(float64(n)) }

// Observe records one request.
func (m *Metrics) Observe(endpoint string, status int, took time.Duration) {
	m.requests.Add(1, endpoint)
	if status >= 400 {
		m.errors.Add(1, endpoint)
	}
	m.duration.Observe(took.Seconds(), endpoint)
}

// Shed records one load-shed request.
func (m *Metrics) Shed(endpoint string) { m.shed.Add(1, endpoint) }

// Panic records one recovered handler panic.
func (m *Metrics) Panic() { m.panics.Add(1) }

// PanicCount reads the recovered-panic counter.
func (m *Metrics) PanicCount() int64 { return int64(m.panics.Value()) }

// EndpointReport is one endpoint's stats in the ordered rendering of
// the metrics payload.
type EndpointReport struct {
	Name string `json:"name"`
	endpointStats
}

// MetricsReport is the JSON form of the GET /metrics payload.
// Endpoints carries the per-endpoint stats in sorted name order — the
// stable rendering; Requests keeps the keyed form for lookups.
type MetricsReport struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Draining      bool                     `json:"draining"`
	Endpoints     []EndpointReport         `json:"endpoints"`
	Requests      map[string]endpointStats `json:"requests"`
	Cache         CacheStats               `json:"cache"`
	CacheEntries  int                      `json:"cache_entries"`
	// Predictions counts served predictions keyed "cache/shape"
	// (e.g. "hit/batch"); BatchSizes summarizes the query counts of
	// batched /predict requests.
	Predictions map[string]int64 `json:"predictions,omitempty"`
	BatchSizes  struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
		Max   float64 `json:"max"`
	} `json:"batch_sizes"`
	// Shed counts admission-control refusals by endpoint; Panics
	// counts recovered handler panics.
	Shed   map[string]int64 `json:"shed,omitempty"`
	Panics int64            `json:"panics"`
	// Breakers lists the per-key estimation circuit states, sorted by
	// key.
	Breakers []BreakerStatus `json:"breakers,omitempty"`
	// Admission is the live state of the estimation slot pool.
	Admission struct {
		InFlight   int64 `json:"in_flight"`
		QueueDepth int64 `json:"queue_depth"`
		Shed       int64 `json:"shed"`
	} `json:"admission"`
	// Jobs is the job table's occupancy.
	Jobs struct {
		Live       int   `json:"live"`
		Running    int   `json:"running"`
		TaskPanics int64 `json:"task_panics"`
	} `json:"jobs"`
	// Campaign worker utilization across the running estimation jobs.
	Campaign struct {
		RunningJobs int     `json:"running_jobs"`
		BusyWorkers int64   `json:"busy_workers"`
		Workers     int64   `json:"workers"`
		Utilization float64 `json:"utilization"`
	} `json:"campaign"`
}

// endpointReport derives one endpoint's JSON stats from the registry
// series.
func (m *Metrics) endpointReport(name string) endpointStats {
	s, _ := m.duration.Sample(name)
	es := endpointStats{
		Count:   s.Count,
		Errors:  int64(m.errors.Value(name)),
		MaxMs:   s.Max * 1e3,
		totalMs: s.Sum * 1e3,
	}
	if es.Count > 0 {
		es.MeanMs = es.totalMs / float64(es.Count)
	}
	return es
}

// Report assembles the metrics payload from the service's parts. The
// registry's series are held in sorted label order, so the payload is
// byte-stable across renders: no map iteration order can leak in.
// adm may be nil (tests exercising Metrics in isolation).
func (m *Metrics) Report(reg *Registry, jobs *Jobs, adm *admission, draining bool) MetricsReport {
	var rep MetricsReport
	rep.UptimeSeconds = time.Since(m.start).Seconds()
	rep.Draining = draining
	sets := m.duration.LabelSets()
	rep.Endpoints = make([]EndpointReport, 0, len(sets))
	rep.Requests = make(map[string]endpointStats, len(sets))
	for _, labels := range sets {
		name := labels[0]
		es := m.endpointReport(name)
		rep.Endpoints = append(rep.Endpoints, EndpointReport{Name: name, endpointStats: es})
		rep.Requests[name] = es
	}

	rep.Cache = reg.Stats()
	rep.CacheEntries = reg.Len()
	rep.Predictions = map[string]int64{}
	for _, labels := range m.predictions.LabelSets() {
		rep.Predictions[labels[0]+"/"+labels[1]] = int64(m.predictions.Value(labels...))
	}
	if s, ok := m.batchSize.Sample(); ok {
		rep.BatchSizes.Count = s.Count
		rep.BatchSizes.Sum = s.Sum
		rep.BatchSizes.Max = s.Max
	}
	rep.Shed = map[string]int64{}
	for _, labels := range m.shed.LabelSets() {
		rep.Shed[labels[0]] = int64(m.shed.Value(labels...))
	}
	rep.Panics = m.PanicCount()
	rep.Breakers = reg.BreakerStates()
	if adm != nil {
		rep.Admission.InFlight = adm.InFlight()
		rep.Admission.QueueDepth = adm.Depth()
		rep.Admission.Shed = adm.Shed()
	}
	rep.Jobs.Live = jobs.Len()
	rep.Jobs.Running = jobs.RunningCount()
	rep.Jobs.TaskPanics = jobs.TaskPanics()
	busy, workers := jobs.Utilization()
	rep.Campaign.BusyWorkers = busy
	rep.Campaign.Workers = workers
	if workers > 0 {
		rep.Campaign.Utilization = float64(busy) / float64(workers)
	}
	rep.Campaign.RunningJobs = jobs.RunningCount()
	return rep
}

// WritePrometheus renders the Prometheus text exposition of the same
// state the JSON report exposes, refreshing the derived gauges from
// the live service parts first. adm may be nil.
func (m *Metrics) WritePrometheus(w io.Writer, reg *Registry, jobs *Jobs, adm *admission, draining bool) error {
	m.uptime.Set(time.Since(m.start).Seconds())
	cs := reg.Stats()
	m.cacheEntries.Set(float64(reg.Len()))
	m.cacheHits.Set(float64(cs.Hits))
	m.cacheMisses.Set(float64(cs.Misses))
	m.evictions.Set(float64(cs.Evictions))
	m.retries.Set(float64(cs.Retries))
	m.rejected.Set(float64(cs.Rejected))
	m.snapshotSwaps.Set(float64(cs.Swaps))
	for _, b := range reg.BreakerStates() {
		m.breakerState.Set(b.state.gaugeValue(), b.Key)
		m.breakerOpens.Set(float64(b.Opens), b.Key)
	}
	busy, workers := jobs.Utilization()
	m.workers.Set(float64(workers))
	m.busyWorkers.Set(float64(busy))
	m.runningJobs.Set(float64(jobs.RunningCount()))
	m.liveJobs.Set(float64(jobs.Len()))
	m.taskPanics.Set(float64(jobs.TaskPanics()))
	if adm != nil {
		m.queueDepth.Set(float64(adm.Depth()))
		m.inflight.Set(float64(adm.InFlight()))
	}
	if draining {
		m.draining.Set(1)
	} else {
		m.draining.Set(0)
	}
	return m.reg.WritePrometheus(w)
}
