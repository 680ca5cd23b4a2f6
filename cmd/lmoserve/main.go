// Command lmoserve serves model predictions over HTTP: the
// estimate-once / predict-many workflow as a long-running service.
// Estimated model sets live in an LRU-bounded in-memory registry keyed
// by platform (cluster, node count, TCP profile, seed); a prediction
// for an unknown platform estimates it on the spot (deduplicated
// across concurrent requests, admission-controlled, circuit-broken per
// platform), and POST /estimate runs asynchronous estimation campaigns
// — optionally sweeping seeds — through the campaign engine.
//
// Endpoints:
//
//	POST /predict   {"cluster","nodes","profile","seed","op","alg","m","root"}
//	                batched form: add "queries":[{...per-query overrides}] —
//	                top-level fields become defaults, each row may override
//	                any of them; cache hits are served lock-free off the
//	                registry snapshot and misses share one admission slot
//	POST /estimate  {"cluster","nodes","profile","seeds","estimator","parallel"} -> job
//	GET  /jobs      list estimation jobs; GET /jobs/{id} polls one
//	GET  /models    list the cached model sets
//	GET  /metrics   Prometheus exposition (JSON with ?format=json)
//	GET  /healthz   liveness (200 even while draining)
//	GET  /readyz    readiness (503 once draining)
//
// On SIGINT/SIGTERM the server stops admitting new work, drains
// running estimation jobs up to -drain, persists a manifest of any
// jobs still running at the deadline (-manifest), then exits; a
// restarted process reports those interrupted jobs on /healthz and
// GET /jobs.
//
// Usage:
//
//	lmoserve -addr :8123
//	lmoserve -models table1.json,mpich.json   # preload cmd/estimate -json output
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/models"
	"repro/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run serves until SIGINT or SIGTERM, then drains, and returns the exit
// code: 0 once drained, 2 when a flag, a -models file or the address
// is unusable (before anything is printed to stdout) or serving fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lmoserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8123", "listen address")
		preload  = fs.String("models", "", "comma-separated model JSON files to preload (from cmd/estimate -json; files must carry meta provenance)")
		parallel = fs.Int("parallel", 0, "worker count of each /estimate and /tune job, and the most a request may ask for (0: GOMAXPROCS)")
		capacity = fs.Int("lru", 64, "model registry capacity (LRU eviction beyond it)")
		timeout  = fs.Duration("timeout", 5*time.Minute, "per-task estimation timeout")

		reqTimeout  = fs.Duration("request-timeout", 5*time.Minute, "per-request deadline, propagated into estimation work (<=0 disables)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline for running jobs")
		maxInflight = fs.Int("max-inflight", 4, "concurrent synchronous estimations (/predict misses)")
		maxQueue    = fs.Int("max-queue", 16, "requests waiting for an estimation slot before shedding with 429")
		maxRunning  = fs.Int("max-running-jobs", 4, "concurrent /estimate campaigns before shedding with 429")
		maxJobs     = fs.Int("max-jobs", 256, "retained jobs before evicting terminal ones oldest-first")
		jobTTL      = fs.Duration("job-ttl", time.Hour, "terminal-job retention before eviction (<=0 keeps until -max-jobs)")
		maxBody     = fs.Int64("max-body", 1<<20, "request body byte limit (413 beyond it)")
		manifest    = fs.String("manifest", "", "path for the unfinished-job manifest written when a drain misses its deadline (and read back at startup)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "lmoserve: "+format+"\n", args...)
		return 2
	}

	cfg := serve.Config{
		Capacity:       *capacity,
		Parallel:       *parallel,
		TaskTimeout:    *timeout,
		RequestTimeout: *reqTimeout,
		MaxConcurrent:  *maxInflight,
		MaxQueue:       *maxQueue,
		MaxRunningJobs: *maxRunning,
		MaxJobs:        *maxJobs,
		JobTTL:         *jobTTL,
		MaxBodyBytes:   *maxBody,
		ManifestPath:   *manifest,
	}
	if *reqTimeout <= 0 {
		cfg.RequestTimeout = -1
	}
	if *jobTTL <= 0 {
		cfg.JobTTL = -1
	}
	if *preload != "" {
		for _, path := range strings.Split(*preload, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return fail("%v", err)
			}
			mf, err := models.UnmarshalModelFile(data)
			if err != nil {
				return fail("%s: %v", path, err)
			}
			cfg.Preload = append(cfg.Preload, mf)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := serve.New(ctx, cfg)
	if err != nil {
		return fail("%v", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("%v", err)
	}
	for _, k := range srv.Registry().Keys() {
		fmt.Fprintf(stdout, "lmoserve: preloaded %s\n", k)
	}
	for _, j := range srv.Interrupted() {
		fmt.Fprintf(stdout, "lmoserve: previous process left job %s (%s[%d]/%s) unfinished at its drain deadline\n",
			j.ID, j.Cluster, j.Nodes, j.Profile)
	}

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// WriteTimeout must outlast the request deadline or slow
		// estimations would be cut off mid-response.
		WriteTimeout: *reqTimeout + 30*time.Second,
	}
	if *reqTimeout <= 0 {
		httpSrv.WriteTimeout = 0
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "lmoserve: listening on %s (registry capacity %d, %d estimation slots, queue %d)\n",
		*addr, *capacity, *maxInflight, *maxQueue)

	select {
	case err := <-errc:
		return fail("%v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Fprintf(stdout, "lmoserve: signal received; draining (deadline %s)\n", *drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "lmoserve: %v\n", err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "lmoserve: closing listener: %v\n", err)
	}
	fmt.Fprintln(stdout, "lmoserve: drained; exiting")
	return 0
}
