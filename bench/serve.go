package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/serve"
)

var serveMixed = workload{
	name: "serve-mixed",
	why: "2 closed-loop clients send 256-row /predict batches over 8 Zipf-hot keys; every 1000th request " +
		"of client 1 misses and estimates beside the reads",
	clients: serveClients,
	ops:     3000,
	setup:   setupServe,
}

const (
	serveClients = 2
	serveNodes   = 16
	hotKeys      = 8
	batchRows    = 256
	bodies       = 64   // distinct request bodies per client, sent round-robin
	coldClient   = 1    // the client whose requests sometimes miss
	coldEvery    = 1000 // coldClient's every coldEvery-th request misses
	coldNodes    = 8
	checkEvery   = 32 // every checkEvery-th hot response is decoded and checked row by row
	digestFirst  = 8  // the first responses per client whose bytes are digested
	clientHdr    = "X-Bench-Client"
)

// okBatch starts every response to a batch that answered all its rows.
var okBatch = fmt.Appendf(nil, `{"count":%d,"errors":0,`, batchRows)

// families maps the JSON names of a batch row's predictions to the
// model families of a model file.
var families = []string{"hockney", "het-hockney", "logp", "loggp", "plogp", "lmo"}

// row is one query of a batch.
type row struct {
	seed int64
	coll models.Collective
	alg  collective.Alg
	m    int
	root int
}

type serveSession struct {
	seed   int64
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	file   *models.ModelFile
	preds  map[string]models.CollectivePredictor // by family name
	rows   [][][]row                             // client → body → rows
	bodies [][][]byte                            // client → body → JSON
	swaps0 int64

	cold                      atomic.Int64               // cold misses issued
	tracing                   atomic.Pointer[spanRec]    // set while the traced phase runs
	handlerNS                 [serveClients]atomic.Int64 // per client: the last ServeHTTP duration
	bufs                      [serveClients]bytes.Buffer // per client: response bodies
	mu                        sync.Mutex                 // guards what follows
	handlerMS, waitMS, missMS []float64                  // traced: per request
	digest                    map[string]string
}

func setupServe(seed int64) (session, error) {
	cfg := experiment.Default()
	cfg.Seed = seed
	ms, err := experiment.EstimateAll(cfg)
	if err != nil {
		return nil, err
	}
	s := &serveSession{seed: seed, digest: map[string]string{}}
	var preload []*models.ModelFile
	for k := 0; k < hotKeys; k++ {
		mf := models.NewModelFile(ms.Hom, ms.Het, ms.LogP, ms.LogGP, ms.PLogP, ms.LMO)
		mf.Meta = &models.Meta{Cluster: "table1", Nodes: serveNodes, Profile: cluster.LAM().Name, Seed: hotSeed(k)}
		preload = append(preload, mf)
	}
	s.file = preload[0]
	data, err := s.file.Marshal()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	s.digest[fmt.Sprintf("seed=%d/model", seed)] = hex.EncodeToString(sum[:])
	plogp, err := s.file.GetPLogP()
	if err != nil {
		return nil, err
	}
	s.preds = map[string]models.CollectivePredictor{
		"hockney": s.file.Hockney, "het-hockney": s.file.GetHetHockney(), "logp": s.file.LogP,
		"loggp": s.file.LogGP, "plogp": plogp, "lmo": s.file.GetLMO(),
	}
	for c := 0; c < serveClients; c++ {
		rows, bodies := makeBodies(seed, c)
		s.rows = append(s.rows, rows)
		s.bodies = append(s.bodies, bodies)
	}
	if s.srv, err = serve.New(context.Background(), serve.Config{Preload: preload}); err != nil {
		return nil, err
	}
	s.swaps0 = s.srv.Registry().Swaps()
	s.ts = httptest.NewServer(http.HandlerFunc(s.serveHTTP))
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	return s, nil
}

// hotSeed is the registry seed of hot key k; the keys share one model.
func hotSeed(k int) int64 { return int64(k + 1) }

// makeBodies draws client c's request bodies. Every body holds exactly
// as many scatter as gather rows and as many linear as binomial ones, in
// shuffled order: binomial rows build a tree per prediction, so a mix
// drawn at random would move allocs_per_op from seed to seed. Roots are
// uniform, message sizes log-uniform over 64 B – 256 KiB, and keys
// Zipf(s=1.2) over the hot keys.
func makeBodies(seed int64, c int) ([][]row, [][]byte) {
	r := rand.New(rand.NewSource(seed*1009 + int64(c)))
	zipf := rand.NewZipf(r, 1.2, 1, hotKeys-1)
	algs := []collective.Alg{collective.AlgLinear, collective.AlgBinomial}
	rows := make([][]row, bodies)
	out := make([][]byte, bodies)
	for b := range rows {
		for q := 0; q < batchRows; q++ {
			rows[b] = append(rows[b], row{
				seed: hotSeed(int(zipf.Uint64())),
				coll: models.Collective(q % 2), // scatter or gather
				alg:  algs[q/2%2],
				m:    int(math.Round(64 * math.Exp2(12*r.Float64()))),
				root: r.Intn(serveNodes),
			})
		}
		r.Shuffle(batchRows, func(i, j int) { rows[b][i], rows[b][j] = rows[b][j], rows[b][i] })
		buf := []byte(`{"cluster":"table1","nodes":16,"profile":"lam","queries":[`)
		for q, x := range rows[b] {
			if q > 0 {
				buf = append(buf, ',')
			}
			buf = fmt.Appendf(buf, `{"seed":%d,"op":"%s","alg":"%s","m":%d,"root":%d}`, x.seed, x.coll, x.alg, x.m, x.root)
		}
		out[b] = append(buf, "]}"...)
	}
	return rows, out
}

// serveHTTP hands every request to the server; while tracing it records
// the handler time of hot requests for the client that sent them.
func (s *serveSession) serveHTTP(w http.ResponseWriter, r *http.Request) {
	rec := s.tracing.Load()
	c, err := strconv.Atoi(r.Header.Get(clientHdr))
	if rec == nil || err != nil || c < 0 || c >= len(s.handlerNS) {
		s.srv.ServeHTTP(w, r)
		return
	}
	sp := rec.begin(c, "serve.ServeHTTP")
	s.srv.ServeHTTP(w, r)
	s.handlerNS[c].Store(int64(sp.end()))
}

// post sends one request for client c and reads the whole response
// into the client's buffer.
func (s *serveSession) post(c int, body []byte, hot bool) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/predict", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if hot {
		req.Header.Set(clientHdr, strconv.Itoa(c))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	s.bufs[c].Reset()
	_, err = s.bufs[c].ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (s *serveSession) op(c, i int, sp *spanRec) (time.Duration, bool, error) {
	s.tracing.Store(sp)
	if c == coldClient && i%coldEvery == coldEvery-1 {
		return s.coldOp(c, sp)
	}
	b := (i + bodies) % bodies // the warm-up is i = -1
	t := sp.begin(c, "client.Post")
	status, err := s.post(c, s.bodies[c][b], true)
	lat := t.end()
	if err != nil {
		return lat, true, err
	}
	if sp != nil {
		handler := time.Duration(s.handlerNS[c].Load())
		s.mu.Lock()
		s.handlerMS = append(s.handlerMS, handler.Seconds()*1e3)
		s.waitMS = append(s.waitMS, (lat-handler).Seconds()*1e3)
		s.mu.Unlock()
	}
	resp := s.bufs[c].Bytes()
	if status != http.StatusOK {
		return lat, true, fmt.Errorf("status %d: %.200s", status, resp)
	}
	if !bytes.HasPrefix(resp, okBatch) {
		return lat, true, fmt.Errorf("batch errors: %.200s", resp)
	}
	if i >= 0 && i < digestFirst {
		sum := sha256.Sum256(resp)
		s.mu.Lock()
		s.digest[fmt.Sprintf("seed=%d/client%d/request%d", s.seed, c, i)] = hex.EncodeToString(sum[:])
		s.mu.Unlock()
	}
	if i%checkEvery == 0 {
		if err := s.checkRows(resp, s.rows[c][b]); err != nil {
			return lat, true, err
		}
	}
	return lat, true, nil
}

// batchItem is one row of a batched /predict response.
type batchItem struct {
	Cache       string             `json:"cache"`
	Op          string             `json:"op"`
	Alg         string             `json:"alg"`
	M           int                `json:"m"`
	Root        int                `json:"root"`
	Predictions map[string]float64 `json:"predictions"`
}

// checkRows requires every response row to echo its query and to equal
// the in-process prediction of each model family bit for bit.
func (s *serveSession) checkRows(resp []byte, rows []row) error {
	var out struct {
		Results []batchItem `json:"results"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(out.Results) != len(rows) {
		return fmt.Errorf("%d results for %d queries", len(out.Results), len(rows))
	}
	for j, x := range rows {
		got := out.Results[j]
		if got.Cache != "hit" || got.Op != x.coll.String() || got.Alg != x.alg.String() || got.M != x.m || got.Root != x.root {
			return fmt.Errorf("row %d answers %+v for query %+v", j, got, x)
		}
		for _, fam := range families {
			want, err := s.preds[fam].Predict(models.Query{Coll: x.coll, Alg: x.alg, Root: x.root, N: serveNodes, M: x.m})
			if err != nil {
				return fmt.Errorf("row %d: in-process %s: %w", j, fam, err)
			}
			if v, ok := got.Predictions[fam]; !ok || v != want {
				return fmt.Errorf("row %d %s: served %v, in-process %v", j, fam, v, want)
			}
		}
	}
	return nil
}

// coldOp asks for a platform no one has estimated: the server estimates
// it during the request and publishes it with a copy-on-write swap.
func (s *serveSession) coldOp(c int, sp *spanRec) (time.Duration, bool, error) {
	seed := s.seed<<20 | s.cold.Add(1)
	body := fmt.Appendf(nil, `{"cluster":"table1","nodes":%d,"profile":"lam","seed":%d,"op":"gather","m":4096}`, coldNodes, seed)
	t := sp.begin(c, "client.Post cold")
	status, err := s.post(c, body, false)
	lat := t.end()
	s.mu.Lock()
	s.missMS = append(s.missMS, lat.Seconds()*1e3)
	s.mu.Unlock()
	if err != nil {
		return lat, false, err
	}
	var got serve.PredictResponse
	if status != http.StatusOK {
		return lat, false, fmt.Errorf("cold request: status %d: %.200s", status, s.bufs[c].Bytes())
	}
	if err := json.Unmarshal(s.bufs[c].Bytes(), &got); err != nil {
		return lat, false, fmt.Errorf("cold request: %w", err)
	}
	if got.Cache != "estimated" || len(got.Predictions) != len(families) || !(got.Predictions["lmo"] > 0) {
		return lat, false, fmt.Errorf("cold request: cache %q, predictions %v", got.Cache, got.Predictions)
	}
	return lat, false, nil
}

// observe has nothing to count: hot requests run no simulation.
func (s *serveSession) observe() (map[string]float64, error) { return nil, nil }

// exact is empty: the served rows are checked against in-process
// predictions and digested instead.
func (s *serveSession) exact() map[string]float64 { return nil }

func (s *serveSession) layers() (map[string]float64, error) {
	reg := s.srv.Registry()
	st := reg.Stats()
	out := map[string]float64{
		"serve.handler_ms_p50":       median(s.handlerMS),
		"serve.handler_ms_p90":       quantiles(s.handlerMS, 0.9)[0],
		"serve.wait_ms_p50":          median(s.waitMS),
		"serve.hit_ratio":            float64(st.Hits) / float64(max(st.Hits+st.Misses, 1)),
		"serve.snapshot_swaps":       float64(reg.Swaps() - s.swaps0),
		"serve.miss_ms_p50":          0,
		"models.predict_ns_linear":   predictNS(s.preds["lmo"], serveNodes, collective.AlgLinear),
		"models.predict_ns_binomial": predictNS(s.preds["lmo"], serveNodes, collective.AlgBinomial),
	}
	if len(s.missMS) > 0 {
		out["serve.miss_ms_p50"] = median(s.missMS)
	}
	const lookups = 100000
	start := time.Now()
	for i := 0; i < lookups; i++ {
		key := serve.Key{Cluster: "table1", Nodes: serveNodes, Profile: cluster.LAM().Name, Seed: hotSeed(i % hotKeys)}
		if _, ok := reg.LookupHit(key); !ok {
			return nil, fmt.Errorf("hot key %v not cached", key)
		}
	}
	out["serve.lookup_ns"] = float64(time.Since(start).Nanoseconds()) / lookups
	shed, err := s.shed()
	out["serve.shed"] = float64(shed)
	return out, err
}

// shed reads the server's count of requests refused by admission
// control.
func (s *serveSession) shed() (int64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics?format=json")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rep serve.MetricsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, fmt.Errorf("decoding /metrics: %w", err)
	}
	var n int64
	for _, v := range rep.Shed {
		n += v
	}
	return n, nil
}

func (s *serveSession) digests() map[string]string { return s.digest }

func (s *serveSession) close() {
	s.ts.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}
