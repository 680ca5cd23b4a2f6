package serve

// The job store tracks asynchronous estimation campaigns. It is
// bounded on two axes: the number of concurrently *running* campaigns
// (excess POST /estimate requests are shed with a typed ShedError so
// the worker pools cannot pile up without limit) and the number of
// *retained* jobs (terminal jobs are evicted by TTL and, beyond the
// table bound, oldest-finished-first, so GET /jobs cannot grow without
// limit). The store is clock-free: it reads monotonic time through an
// injected func, wired to the real clock by the server's lifecycle
// files and to fakes by the chaos suite.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// JobState is an estimation job's lifecycle state.
type JobState string

// The job states.
const (
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one asynchronous estimation campaign: POST /estimate creates
// it, GET /jobs/{id} polls it, and its completed models land in the
// model registry.
type Job struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Cluster   string   `json:"cluster"`
	Nodes     int      `json:"nodes"`
	Profile   string   `json:"profile"`
	Seeds     []int64  `json:"seeds"`
	Estimator string   `json:"estimator"`
	Parallel  int      `json:"parallel"`

	// Progress counts tasks while running and after completion.
	Progress campaign.Snapshot `json:"progress"`
	// Error is set for failed jobs and for per-task failures.
	Error string `json:"error,omitempty"`
	// Metrics holds the seed-aggregated parameter statistics of a
	// completed estimation job (mean/CI across seeds); only estimation
	// jobs carry them, a tune job has none.
	Metrics map[string]stats.Summary `json:"metrics,omitempty"`
	// ModelKeys are the registry keys the job populated.
	ModelKeys []string `json:"model_keys,omitempty"`
	// Took is the campaign's wall-clock duration once done.
	Took string `json:"took,omitempty"`

	seq        int
	stats      *campaign.Stats
	finishedAt time.Duration // monotonic instant the job went terminal
}

// snapshot renders the job's public state, refreshing the live
// progress counters of a running campaign.
func (j *Job) snapshot() Job {
	cp := *j
	if j.stats != nil {
		cp.Progress = j.stats.Snapshot()
	}
	cp.stats = nil
	return cp
}

// JobsConfig bounds the job store.
type JobsConfig struct {
	// MaxRunning caps concurrently running campaigns; Start sheds
	// beyond it (default 4).
	MaxRunning int
	// MaxJobs caps retained jobs; terminal jobs are evicted
	// oldest-finished-first beyond it (default 256).
	MaxJobs int
	// TTL evicts terminal jobs this long after they finish (0 keeps
	// them until the MaxJobs bound pushes them out).
	TTL time.Duration
	// Now reads a monotonic clock for TTL accounting (nil: frozen at
	// 0, disabling TTL eviction).
	Now func() time.Duration
	// RetryAfter is the shed hint for refused jobs (default 1s).
	RetryAfter time.Duration
}

func (c JobsConfig) withDefaults() JobsConfig {
	if c.MaxRunning <= 0 {
		c.MaxRunning = 4
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.Now == nil {
		c.Now = func() time.Duration { return 0 }
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Jobs tracks estimation campaigns.
type Jobs struct {
	mu      sync.Mutex
	cfg     JobsConfig
	seq     int
	jobs    map[string]*Job
	running int
	change  chan struct{} // signaled (coalesced) on every terminal transition
}

// NewJobs builds an empty job table.
func NewJobs(cfg JobsConfig) *Jobs {
	return &Jobs{
		cfg:    cfg.withDefaults(),
		jobs:   make(map[string]*Job),
		change: make(chan struct{}, 1),
	}
}

// Start registers a job and launches its campaign in the background;
// run executes the campaign and returns the registry keys populated.
// When MaxRunning campaigns are already in flight the job is refused
// with a *ShedError and nothing is registered. The returned Job is a
// snapshot taken at registration — the live job is only reachable
// through Get/List, which synchronize with the campaign goroutine.
func (js *Jobs) Start(j *Job, run func(*campaign.Stats) (*campaign.Outcome, []Key, error)) (Job, error) {
	js.mu.Lock()
	if js.running >= js.cfg.MaxRunning {
		js.mu.Unlock()
		return Job{}, &ShedError{
			Reason:     fmt.Sprintf("%d estimation jobs already running", js.cfg.MaxRunning),
			RetryAfter: js.cfg.RetryAfter,
		}
	}
	js.evictLocked()
	js.seq++
	js.running++
	j.seq = js.seq
	j.ID = fmt.Sprintf("job-%d", js.seq)
	j.State = JobRunning
	j.stats = &campaign.Stats{}
	js.jobs[j.ID] = j
	snap := j.snapshot()
	js.mu.Unlock()

	go func() {
		out, keys, err := run(j.stats)
		js.mu.Lock()
		j.Progress = j.stats.Snapshot()
		j.finishedAt = js.cfg.Now()
		js.running--
		if err != nil {
			j.State = JobFailed
			j.Error = err.Error()
		} else {
			j.State = JobDone
			j.Took = out.Wall.Round(time.Millisecond).String()
			for _, k := range keys {
				j.ModelKeys = append(j.ModelKeys, k.String())
			}
			if failed := out.Failed(); failed > 0 {
				j.Error = fmt.Sprintf("%d of %d tasks failed: %s", failed, len(out.Results), firstError(out))
			}
			if len(out.Aggregates) > 0 {
				j.Metrics = out.Aggregates[0].Metrics
			}
		}
		js.mu.Unlock()
		// Coalesced wakeup for WaitIdle.
		select {
		case js.change <- struct{}{}:
		default:
		}
	}()
	return snap, nil
}

// evictLocked applies the retention policy: terminal jobs past the TTL
// go first, then — if the table still exceeds MaxJobs — terminal jobs
// oldest-finished-first. Running jobs are never evicted.
func (js *Jobs) evictLocked() {
	now := js.cfg.Now()
	type aged struct {
		id string
		at time.Duration
	}
	var terminal []aged
	// Collection order is irrelevant: the slice is sorted below and
	// TTL eviction is a pure per-entry predicate.
	//lmovet:commutative
	for id, j := range js.jobs {
		if j.State == JobRunning {
			continue
		}
		if js.cfg.TTL > 0 && now-j.finishedAt >= js.cfg.TTL {
			delete(js.jobs, id)
			continue
		}
		terminal = append(terminal, aged{id, j.finishedAt})
	}
	over := len(js.jobs) + 1 - js.cfg.MaxJobs // +1: room for the job being started
	if over <= 0 {
		return
	}
	sort.Slice(terminal, func(a, b int) bool {
		if terminal[a].at != terminal[b].at {
			return terminal[a].at < terminal[b].at
		}
		return js.jobs[terminal[a].id].seq < js.jobs[terminal[b].id].seq
	})
	for _, t := range terminal {
		if over <= 0 {
			break
		}
		delete(js.jobs, t.id)
		over--
	}
}

func firstError(out *campaign.Outcome) string {
	for _, r := range out.Results {
		if r.Err != "" {
			return r.Err
		}
	}
	return ""
}

// Get returns a snapshot of the job, or false.
func (js *Jobs) Get(id string) (Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.snapshot(), true
}

// List snapshots every retained job, newest first.
func (js *Jobs) List() []Job {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]Job, 0, len(js.jobs))
	// Collection order is irrelevant: the slice is sorted by job
	// sequence number immediately below.
	//lmovet:commutative
	for _, j := range js.jobs {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq > out[b].seq })
	return out
}

// Running snapshots the jobs still in the running state, oldest first
// (the drain manifest's payload).
func (js *Jobs) Running() []Job {
	js.mu.Lock()
	defer js.mu.Unlock()
	var out []Job
	// Collection order is irrelevant: sorted by sequence below.
	//lmovet:commutative
	for _, j := range js.jobs {
		if j.State == JobRunning {
			out = append(out, j.snapshot())
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Len is the number of retained jobs.
func (js *Jobs) Len() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return len(js.jobs)
}

// RunningCount is the number of campaigns currently running.
func (js *Jobs) RunningCount() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.running
}

// WaitIdle blocks until no campaign is running or ctx expires.
func (js *Jobs) WaitIdle(ctx context.Context) error {
	for {
		if js.RunningCount() == 0 {
			return nil
		}
		select {
		case <-js.change:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Utilization sums busy workers and pool sizes across running jobs.
func (js *Jobs) Utilization() (busy, workers int64) {
	js.mu.Lock()
	defer js.mu.Unlock()
	// Sum reduction over running jobs; integer addition commutes.
	//lmovet:commutative
	for _, j := range js.jobs {
		if j.State == JobRunning && j.stats != nil {
			s := j.stats.Snapshot()
			busy += s.Busy
			workers += s.Workers
		}
	}
	return busy, workers
}

// TaskPanics sums captured task panics across every retained job.
func (js *Jobs) TaskPanics() int64 {
	js.mu.Lock()
	defer js.mu.Unlock()
	var n int64
	// Sum reduction; integer addition commutes.
	//lmovet:commutative
	for _, j := range js.jobs {
		if j.stats != nil {
			n += j.stats.Snapshot().Panicked
		} else {
			n += j.Progress.Panicked
		}
	}
	return n
}
