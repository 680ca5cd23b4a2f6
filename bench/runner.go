package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
)

// warmup is the operation index of the untimed warm-up operation each
// client runs at the end of set-up.
const warmup = -1

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name    string
	why     string
	clients int // concurrent closed-loop clients (at most nproc)
	// ops is the number of operations each client runs in a run: a
	// fixed count, so that every commit runs the same inputs.
	ops   int
	setup func(seed int64) (session, error)
}

// session is one set-up instance of a workload.
type session interface {
	// op runs operation i of client c (i == warmup for the warm-up)
	// and checks its output. It returns the latency of the public
	// calls alone, checks excluded, and whether that latency is a hot
	// sample; serve-mixed's cold misses are timed separately.
	op(c, i int, sp *spanRec) (lat time.Duration, hot bool, err error)
	// observe runs one extra untimed operation with the simulator's
	// observer installed and returns its counters per operation.
	observe() (map[string]float64, error)
	// layers reports the session's per-layer metrics over every
	// operation it ran, running any micro-measurements it needs.
	layers() (map[string]float64, error)
	// exact reports the session's exact metrics (see metrics.go) over
	// every operation it ran; an untraced run records them too.
	exact() map[string]float64
	// digests are the output digests, each named by the seed and
	// operation that produced it ("seed=7", "seed=3/client1/request0"):
	// one name always has one digest.
	digests() map[string]string
	close()
}

// runConfig parameterizes one run of one workload.
type runConfig struct {
	seed   int64
	trace  bool
	setups int // set-up repetitions of an untraced run
	outDir string
}

// phase is what one measurement window produced.
type phase struct {
	hot       []float64 // hot latencies, seconds
	attempted int
	failed    int
	errs      []string
	wall      time.Duration
	mallocs   uint64
	bytes     uint64
}

// measure runs operations from, from+1, …, to-1 on every client,
// closed-loop.
func measure(s session, clients, from, to int, sp *spanRec) *phase {
	var mu sync.Mutex
	p := &phase{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := from; i < to; i++ {
				opSpan := sp.begin(c, "op")
				lat, hot, err := s.op(c, i, sp)
				opSpan.end()
				mu.Lock()
				p.attempted++
				switch {
				case err != nil:
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, fmt.Sprintf("client %d op %d: %v", c, i, err))
					}
				case hot:
					p.hot = append(p.hot, lat.Seconds())
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	return p
}

// setUp builds a session and runs each client's warm-up operation,
// returning the session and the time both took.
func setUp(w workload, seed int64) (session, time.Duration, error) {
	start := time.Now()
	s, err := w.setup(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	for c := 0; c < w.clients; c++ {
		if _, _, err := s.op(c, warmup, nil); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	return s, time.Since(start), nil
}

// run runs one workload and returns its record. An untraced run sets
// up cfg.setups times (reporting the median), runs w.ops operations per
// client and reports end-to-end and exact metrics; a traced run sets up
// once, runs the first half of the operations untraced and the second
// half traced, and reports per-layer metrics.
func run(w workload, cfg runConfig) (*record, error) {
	rec := newRecord(w.name, w.ops, cfg)
	n := cfg.setups
	if cfg.trace || n < 1 {
		n = 1
	}
	var s session
	var setupS []float64
	for k := 0; k < n; k++ {
		if s != nil {
			s.close()
		}
		var d time.Duration
		var err error
		if s, d, err = setUp(w, cfg.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
	}
	defer s.close()

	if cfg.trace {
		if err := runTraced(rec, w, s, cfg.outDir); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	} else {
		p := measure(s, w.clients, 0, w.ops, nil)
		rec.addPhase(p)
		rec.Metrics["setup_s"] = summarize(setupS)
		rec.Metrics["ops_per_s"] = over(float64(len(p.hot))/p.wall.Seconds(), len(p.hot))
		rec.Metrics["allocs_per_op"] = over(float64(p.mallocs)/float64(p.attempted), p.attempted)
		for name, v := range s.exact() {
			rec.Metrics[name] = single(v)
		}
	}
	rec.Digests = s.digests()
	return rec, nil
}

// runTraced runs the first half of the workload's operations untraced
// and the rest under the span recorder and the CPU profiler, then fills
// rec with the per-layer metrics and saves the trace and profile to
// outDir. Each half has at least one operation.
func runTraced(rec *record, w workload, s session, outDir string) error {
	half := max(w.ops/2, 1)
	plain := measure(s, w.clients, 0, half, nil)
	rec.addPhase(plain)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	sp := newSpanRec()
	traced := measure(s, w.clients, half, max(w.ops, half+1), sp)
	pprof.StopCPUProfile()
	rec.addPhase(traced)

	layers, err := s.layers()
	if err != nil {
		return err
	}
	counters, err := s.observe()
	if err != nil {
		return fmt.Errorf("observed operation: %w", err)
	}
	for k, v := range counters {
		layers[k] = v
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares, gc := attribute(p)
	for l, v := range shares {
		layers[l+".cpu_share"] = v
	}
	layers["runtime.gc_cpu_share"] = gc
	layers["runtime.alloc_mb_per_op"] = float64(plain.bytes) / float64(plain.attempted) / (1 << 20)
	layers["trace_overhead_x"] = median(traced.hot) / median(plain.hot)
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
		rec.Metrics[m.Name] = single(layers[m.Name]) // layers a workload leaves idle read 0
	}
	for name := range layers {
		if !known[name] {
			return fmt.Errorf("unknown per-layer metric %s", name)
		}
	}
	rec.flame = obs.FlameSummary(sp.tr)
	if outDir == "" {
		return nil
	}
	return writeTrace(outDir, rec, sp, prof.Bytes())
}
