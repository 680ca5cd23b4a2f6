package serve

// Batched /predict: one POST answering thousands of prediction queries.
// The request carries shared defaults at the top level and an array of
// per-query overrides (the runfile idiom: globals, then rows — see
// SNIPPETS.md snippet 1). The handler resolves each distinct platform
// key once, keeps cache hits on the admission-free read path exactly
// like the unary handler, claims at most one admission slot for all of
// a batch's misses, and streams the response through a pooled encoder
// buffer so the per-query cost is the prediction kernel plus a few
// appended bytes. Per-key failures (shed, open breaker, drain,
// estimation errors) degrade to typed per-item errors: the rest of the
// batch still answers.
//
// This file is clock-free (lmovet walltime scope): admission waits ride
// on the request context like everywhere else in the serve package.

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/models"
)

// BatchQuery is one row of a batched /predict request. Every field is
// optional: a zero value inherits the request's top-level default.
// Root is a pointer because rank 0 is a meaningful override.
type BatchQuery struct {
	Cluster string `json:"cluster,omitempty"`
	Nodes   int    `json:"nodes,omitempty"`
	Profile string `json:"profile,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Op      string `json:"op,omitempty"`
	Alg     string `json:"alg,omitempty"`
	M       int    `json:"m,omitempty"`
	Root    *int   `json:"root,omitempty"`
	Degree  int    `json:"degree,omitempty"`
	Segment int    `json:"segment,omitempty"`
}

// batchPlatform is one distinct platform key appearing in a batch: the
// model set is resolved once here however many queries reference it.
type batchPlatform struct {
	key    Key
	keyStr string
	n      int
	entry  *Entry
	cache  string // "hit", "estimated" or "joined" when entry != nil
	code   string // typed error code when entry == nil
	msg    string // error message when entry == nil
}

// batchQueryPlan is one query after validation: its platform state plus
// the collective to evaluate.
type batchQueryPlan struct {
	plat *batchPlatform
	q    models.Query
}

// batchErrorParts maps a miss-path failure to the same typed codes the
// unary handler's writeWorkError uses, as per-item fields.
func batchErrorParts(err error) (code, msg string) {
	var shed *ShedError
	if errors.As(err, &shed) {
		return "shed", shed.Error()
	}
	var open *BreakerOpenError
	if errors.As(err, &open) {
		return "breaker_open", open.Error()
	}
	var draining *DrainingError
	if errors.As(err, &draining) {
		return "draining", draining.Error()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline", "request deadline exceeded"
	}
	if errors.Is(err, context.Canceled) {
		return "cancelled", "request cancelled"
	}
	return "error", err.Error()
}

// handleBatchPredict answers a /predict request carrying a queries
// array. A canonical body reaches it decoded by decodeJSON's scanner,
// with no allocation per row; each distinct platform's key is resolved
// once, without building its cluster. Validation failures reject the
// whole batch with 400 (they are client bugs); per-key serving failures
// degrade to per-item errors.
func (s *Server) handleBatchPredict(w http.ResponseWriter, r *http.Request, req *PredictRequest) {
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "queries must not be empty in batch mode")
		return
	}
	s.metrics.BatchSize(len(req.Queries))

	// Pass 1 — merge defaults into each row, validate, and group the
	// rows by distinct platform key.
	plans := make([]batchQueryPlan, len(req.Queries))
	platforms := map[platformRequest]*batchPlatform{}
	order := make([]*batchPlatform, 0, 4) // insertion order: deterministic resolution
	pieces := 0
	for i := range req.Queries {
		q := &req.Queries[i]
		plat := req.platformRequest
		if q.Cluster != "" {
			plat.Cluster = q.Cluster
		}
		if q.Nodes != 0 {
			plat.Nodes = q.Nodes
		}
		if q.Profile != "" {
			plat.Profile = q.Profile
		}
		if q.Seed != 0 {
			plat.Seed = q.Seed
		}
		st, ok := platforms[plat]
		if !ok {
			key, err := plat.key()
			if err != nil {
				httpError(w, http.StatusBadRequest, "query %d: %v", i, err)
				return
			}
			st = &batchPlatform{key: key, n: key.Nodes}
			platforms[plat] = st
			order = append(order, st)
		}
		row := QueryRow{Op: req.Op, Alg: req.Alg, M: req.M, Root: req.Root, Degree: req.Degree, Segment: req.Segment}
		if q.Op != "" {
			row.Op = q.Op
		}
		if q.Alg != "" {
			row.Alg = q.Alg
		}
		if q.M != 0 {
			row.M = q.M
		}
		if q.Root != nil {
			row.Root = *q.Root
		}
		if q.Degree != 0 {
			row.Degree = q.Degree
		}
		if q.Segment != 0 {
			row.Segment = q.Segment
		}
		query, err := row.Query(st.n)
		if err != nil {
			httpError(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		if pieces += segmentPieces(query); pieces > maxSegmentPieces {
			httpError(w, http.StatusBadRequest,
				"query %d: segmented queries need more than %d pieces in total, the per-request limit", i, maxSegmentPieces)
			return
		}
		plans[i] = batchQueryPlan{plat: st, q: query}
	}

	// Pass 2 — resolve each distinct key once. Hits stay on the
	// lock-free read path; all of the batch's misses share one
	// admission slot.
	var release func()
	admit := func() error { // lazy: only the first miss claims a slot
		if release != nil {
			return nil
		}
		rel, err := s.adm.acquire(r.Context())
		if err != nil {
			return err
		}
		release = rel
		return nil
	}
	var admitErr error
	for _, st := range order {
		if entry, ok := s.reg.LookupHit(st.key); ok {
			st.entry, st.cache = entry, "hit"
			continue
		}
		if s.draining.Load() {
			st.code, st.msg = batchErrorParts(&DrainingError{})
			continue
		}
		if admitErr == nil {
			admitErr = admit()
			if admitErr != nil {
				s.metrics.Shed("predict")
			}
		}
		if admitErr != nil {
			st.code, st.msg = batchErrorParts(admitErr)
			continue
		}
		entry, hit, err := s.reg.GetOrEstimate(r.Context(), st.key)
		if err != nil {
			st.code, st.msg = batchErrorParts(err)
			continue
		}
		st.entry = entry
		if hit {
			st.cache = "joined"
		} else {
			st.cache = "estimated"
		}
	}
	if release != nil {
		release()
	}
	// A resolved key's string comes rendered with its entry; only a
	// failed key renders one per batch.
	for _, st := range order {
		if st.entry != nil {
			st.keyStr = st.entry.keyStr
		} else {
			st.keyStr = st.key.String()
		}
	}

	// Pass 3 — stream the response through a pooled buffer: the
	// per-item rendering is hand-appended JSON, no per-item encoder or
	// map allocation.
	var hits, estimated, joined, failed int64
	for _, p := range plans {
		switch p.plat.cache {
		case "hit":
			hits++
		case "estimated":
			estimated++
		case "joined":
			joined++
		default:
			failed++
		}
	}
	s.metrics.Prediction("hit", "batch", hits)
	s.metrics.Prediction("estimated", "batch", estimated)
	s.metrics.Prediction("joined", "batch", joined)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bp := batchBufs.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(plans)), 10)
	b = append(b, `,"errors":`...)
	b = strconv.AppendInt(b, failed, 10)
	b = append(b, `,"results":[`...)
	for i := range plans {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendBatchItem(b, &plans[i])
		if len(b) >= batchFlushBytes {
			w.Write(b)
			b = b[:0]
		}
	}
	b = append(b, `]}`...)
	b = append(b, '\n')
	w.Write(b)
	*bp = b[:0]
	batchBufs.Put(bp)
}

// batchFlushBytes is the streaming threshold: the response buffer is
// flushed to the wire whenever it grows past this.
const batchFlushBytes = 32 << 10

// batchBufs pools the batch response buffers (pointer-to-slice so the
// pool holds the backing array, not a copy of the header).
var batchBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// familyJSON holds the pre-rendered `"name":` fragments of the
// predictions object, indexed by family.
var familyJSON = [numFamilies]string{
	`"hockney":`, `"het-hockney":`, `"logp":`, `"loggp":`, `"plogp":`, `"lmo":`,
}

// appendBatchItem renders one query's result (or typed error) onto b.
// Registry key strings and family names contain no characters needing
// JSON escaping, so they are appended verbatim inside quotes; error
// messages go through strconv.AppendQuote.
func appendBatchItem(b []byte, p *batchQueryPlan) []byte {
	st := p.plat
	b = append(b, `{"key":"`...)
	b = append(b, st.keyStr...)
	b = append(b, '"')
	if st.entry == nil {
		b = append(b, `,"code":"`...)
		b = append(b, st.code...)
		b = append(b, `","error":`...)
		b = strconv.AppendQuote(b, st.msg)
		b = append(b, '}')
		return b
	}
	q := p.q
	b = append(b, `,"cache":"`...)
	b = append(b, st.cache...)
	b = append(b, `","op":"`...)
	b = append(b, q.Coll.String()...)
	b = append(b, `","alg":"`...)
	b = append(b, q.Alg.String()...)
	b = append(b, `","m":`...)
	b = strconv.AppendInt(b, int64(q.M), 10)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(st.n), 10)
	b = append(b, `,"root":`...)
	b = strconv.AppendInt(b, int64(q.Root), 10)
	if q.Degree != 0 {
		b = append(b, `,"degree":`...)
		b = strconv.AppendInt(b, int64(q.Degree), 10)
	}
	if q.Segment != 0 {
		b = append(b, `,"segment":`...)
		b = strconv.AppendInt(b, int64(q.Segment), 10)
	}
	b = append(b, `,"predictions":{`...)
	var vals [numFamilies]float64
	mask := st.entry.predictInto(q, &vals)
	first := true
	for i := 0; i < numFamilies; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, familyJSON[i]...)
		b = appendJSONFloat(b, vals[i])
	}
	b = append(b, '}')
	if lo, hi, ok := GatherBand(st.entry.LMO, q); ok {
		b = append(b, `,"band_low":`...)
		b = appendJSONFloat(b, lo)
		b = append(b, `,"band_high":`...)
		b = appendJSONFloat(b, hi)
	}
	b = append(b, '}')
	return b
}

// appendJSONFloat renders a float the way encoding/json does ('f' for
// mid-range magnitudes, 'e' with a trimmed exponent otherwise), so
// batch items and unary responses agree on the bytes of a prediction.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json strips the leading zero of a two-digit
		// exponent: "2e-07" becomes "2e-7".
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
