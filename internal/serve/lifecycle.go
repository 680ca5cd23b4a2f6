package serve

// Server lifecycle: graceful drain, unfinished-job manifests, health
// endpoints and panic recovery. This file (with server.go and
// metrics.go) is one of the approved wall-clock touchpoints of the
// serve package — everything else in serve is clock-free and covered
// by lmovet's walltime analyzer (see internal/analysis/policy.go).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"
)

// Manifest records the jobs that were still running when a drain
// deadline expired — the restart-reporting contract between one server
// process and the next.
type Manifest struct {
	WrittenAt string `json:"written_at"` // RFC3339 wall-clock timestamp
	Jobs      []Job  `json:"jobs"`
}

// writeManifest persists the unfinished jobs atomically (write to a
// temp file, then rename).
func writeManifest(path string, jobs []Job) error {
	m := Manifest{WrittenAt: time.Now().UTC().Format(time.RFC3339), Jobs: jobs}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadManifest loads a drain manifest; a missing file is (nil, nil).
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("serve: reading drain manifest %s: %w", path, err)
	}
	return &m, nil
}

// Interrupted returns the jobs a previous process left running at its
// drain deadline (loaded from Config.ManifestPath at startup).
func (s *Server) Interrupted() []Job { return append([]Job(nil), s.interrupted...) }

// Shutdown drains the server: it stops admitting new work immediately
// (readyz flips to 503, estimation requests are refused), waits for
// running estimation jobs up to ctx's deadline, then cancels the
// server context. If the deadline expires with jobs still running,
// their manifests are persisted to Config.ManifestPath (when set) for
// restart reporting, the jobs' campaigns are cancelled, and Shutdown
// returns an error naming the interrupted work after the cancelled
// campaigns reach a terminal state.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if err := s.jobs.WaitIdle(ctx); err == nil {
		s.cancel()
		return nil
	}
	running := s.jobs.Running()
	var manifestErr error
	if s.cfg.ManifestPath != "" && len(running) > 0 {
		manifestErr = writeManifest(s.cfg.ManifestPath, running)
	}
	// Cancelling the server context makes every running campaign
	// return promptly with cancelled-task results (stuck simulations
	// are abandoned, not joined), so the grace wait below is short.
	s.cancel()
	grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.jobs.WaitIdle(grace)
	if manifestErr != nil {
		return fmt.Errorf("serve: drain deadline expired with %d jobs running; manifest write failed: %w",
			len(running), manifestErr)
	}
	return fmt.Errorf("serve: drain deadline expired with %d jobs running (manifest persisted)", len(running))
}

// healthState is the GET /healthz payload.
type healthState struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining"`
	Jobs        int    `json:"jobs"`
	RunningJobs int    `json:"running_jobs"`
	// Interrupted lists jobs a previous process abandoned at its drain
	// deadline.
	Interrupted []Job `json:"interrupted,omitempty"`
}

// handleHealthz reports liveness: 200 as long as the process can
// answer, draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthState{
		Status:      "ok",
		Draining:    s.draining.Load(),
		Jobs:        s.jobs.Len(),
		RunningJobs: s.jobs.RunningCount(),
		Interrupted: s.interrupted,
	})
}

// handleReadyz reports readiness: 503 once draining so load balancers
// stop routing, 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpErrorCode(w, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// recovered converts a handler panic into a 500 response plus a
// serve_panics_total increment, instead of killing the connection (and,
// under http.Server's default, surviving the process either way — but
// a panicking handler must not take the response with it).
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Panic()
				if rec, ok := w.(*statusRecorder); !ok || !rec.wrote {
					httpErrorCode(w, http.StatusInternalServerError, "panic", "internal error")
				}
			}
		}()
		h(w, r)
	}
}

// realNow returns a monotonic clock rooted at the server's start — the
// production time source injected into the clock-free registry, jobs
// and breaker machinery.
func realNow() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// realSleep waits d or until ctx expires — the production sleep
// injected into the registry's retry backoff.
func realSleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
