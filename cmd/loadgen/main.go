// Command loadgen is a closed-loop load generator for lmoserve's
// /predict endpoint: a fixed pool of workers keeps exactly one request
// in flight each (the sigmaos stats-server load-test shape), issuing
// unary or batched predictions with a configurable key-skew across
// platform seeds, and reports predictions/sec with p50/p95/p99 request
// latency as JSON — the live-server counterpart of the benchmark's
// serve-mixed workload (bash bench/run.sh -workload serve-mixed).
//
// Examples:
//
//	lmoserve -addr :8080 &
//	loadgen -addr http://localhost:8080 -n 2000 -c 16
//	loadgen -addr http://localhost:8080 -n 200 -c 8 -batch 1024 -seeds 8 -zipf 1.2
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "lmoserve base URL")
		n       = flag.Int("n", 1000, "total requests to issue")
		c       = flag.Int("c", 8, "closed-loop workers (one request in flight each)")
		batch   = flag.Int("batch", 1, "queries per request (1 = unary /predict)")
		opName  = flag.String("op", "gather", "collective: scatter or gather")
		algName = flag.String("alg", "linear", "algorithm: linear or binomial")
		size    = flag.Int("m", 4096, "base block size in bytes (rows vary around it)")
		clName  = flag.String("cluster", "table1", "cluster name")
		nodes   = flag.Int("nodes", 16, "cluster subset size")
		mpiName = flag.String("profile", "lam", "MPI implementation profile")
		seeds   = flag.Int("seeds", 1, "distinct platform seeds (distinct registry keys)")
		zipfS   = flag.Float64("zipf", 0, "key skew: Zipf s parameter (>1; 0 = uniform)")
		seed    = flag.Int64("seed", 1, "load generator randomness seed")
		timeout = flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	)
	flag.Parse()
	if *n <= 0 || *c <= 0 || *batch <= 0 || *seeds <= 0 {
		fail("-n, -c, -batch and -seeds must be positive")
	}
	if *zipfS != 0 && *zipfS <= 1 {
		fail("-zipf must be > 1 (or 0 for uniform)")
	}

	client := &http.Client{
		Timeout:   *timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: *c},
	}
	url := *addr + "/predict"

	var (
		issued    atomic.Int64
		errs      atomic.Int64
		latMu     sync.Mutex
		latencies []time.Duration
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			var zipf *rand.Zipf
			if *zipfS > 1 && *seeds > 1 {
				zipf = rand.NewZipf(rng, *zipfS, 1, uint64(*seeds-1))
			}
			pickSeed := func() int64 {
				if zipf != nil {
					return 1 + int64(zipf.Uint64())
				}
				return 1 + rng.Int63n(int64(*seeds))
			}
			var buf bytes.Buffer
			for issued.Add(1) <= int64(*n) {
				buf.Reset()
				fmt.Fprintf(&buf, `{"cluster":%q,"nodes":%d,"profile":%q,"seed":%d,"op":%q,"alg":%q,"m":%d`,
					*clName, *nodes, *mpiName, pickSeed(), *opName, *algName, *size)
				if *batch > 1 {
					buf.WriteString(`,"queries":[`)
					for i := 0; i < *batch; i++ {
						if i > 0 {
							buf.WriteByte(',')
						}
						// Vary size and seed per row: skewed seeds spread
						// rows across registry keys inside one batch.
						fmt.Fprintf(&buf, `{"m":%d,"seed":%d}`, *size<<uint(i%4), pickSeed())
					}
					buf.WriteString("]")
				}
				buf.WriteString("}")
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(buf.Bytes()))
				took := time.Since(t0)
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
					continue
				}
				latMu.Lock()
				latencies = append(latencies, took)
				latMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p int) float64 {
		if len(latencies) == 0 {
			return 0
		}
		return float64(latencies[len(latencies)*p/100]) / 1e6
	}
	done := int64(len(latencies))
	report := struct {
		Requests          int64   `json:"requests"`
		Batch             int     `json:"batch"`
		Workers           int     `json:"workers"`
		Errors            int64   `json:"errors"`
		ElapsedSec        float64 `json:"elapsed_sec"`
		RequestsPerSec    float64 `json:"requests_per_sec"`
		PredictionsPerSec float64 `json:"predictions_per_sec"`
		P50Ms             float64 `json:"p50_ms"`
		P95Ms             float64 `json:"p95_ms"`
		P99Ms             float64 `json:"p99_ms"`
	}{
		Requests:          done,
		Batch:             *batch,
		Workers:           *c,
		Errors:            errs.Load(),
		ElapsedSec:        elapsed.Seconds(),
		RequestsPerSec:    float64(done) / elapsed.Seconds(),
		PredictionsPerSec: float64(done*int64(*batch)) / elapsed.Seconds(),
		P50Ms:             pct(50),
		P95Ms:             pct(95),
		P99Ms:             pct(99),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fail("%v", err)
	}
	if report.Errors > 0 {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(2)
}
