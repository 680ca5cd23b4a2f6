package serve

// The /predict request path. A request carries shared defaults at the
// top level and, in batch mode, an array of per-query overrides (the
// runfile idiom: globals, then rows — see SNIPPETS.md snippet 1); a
// unary request is a batch of one row that sets nothing, so it inherits
// every top-level field. Both take the one path: plan merges each row
// over the defaults and validates it, resolve finds each distinct
// platform's models once — cache hits on the admission-free read path,
// all of the request's misses under one admission slot — and the
// answers stream through a pooled buffer, each item hand-appended by
// appendItem around AppendAnswer, so the per-query cost is the
// prediction kernel plus a few appended bytes. Only the ends differ: a
// batch wraps its items in a count envelope, and a per-key failure
// (shed, open breaker, drain, estimation error) degrades to a typed
// per-item error while the rest of the batch answers; a unary request
// answers its one item, or its failure with writeWorkError's status.
//
// This file is clock-free (lmovet walltime scope): admission waits ride
// on the request context like everywhere else in the serve package.

import (
	"context"
	"fmt"
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

// Merge returns the row's query merged over the defaults def: each
// field the row sets replaces def's. cmd/predict merges its -batch
// lines over the flags through it.
func (q *BatchQuery) Merge(def QueryRow) QueryRow {
	if q.Op != "" {
		def.Op = q.Op
	}
	if q.Alg != "" {
		def.Alg = q.Alg
	}
	if q.M != 0 {
		def.M = q.M
	}
	if q.Root != nil {
		def.Root = *q.Root
	}
	if q.Degree != 0 {
		def.Degree = q.Degree
	}
	if q.Segment != 0 {
		def.Segment = q.Segment
	}
	return def
}

// platform returns the row's platform merged over the defaults def.
func (q *BatchQuery) platform(def platformRequest) platformRequest {
	if q.Cluster != "" {
		def.Cluster = q.Cluster
	}
	if q.Nodes != 0 {
		def.Nodes = q.Nodes
	}
	if q.Profile != "" {
		def.Profile = q.Profile
	}
	if q.Seed != 0 {
		def.Seed = q.Seed
	}
	return def
}

// batchPlatform is one distinct platform key appearing in a request:
// the model set is resolved once here however many queries reference
// it.
type batchPlatform struct {
	key    Key
	keyStr string
	entry  *Entry
	cache  string // "hit", "estimated" or "joined" when entry != nil
	err    error  // why entry is nil
	code   string // err's typed code, as a batch item reports it
	msg    string // err's message, as a batch item reports it
}

// batchQueryPlan is one query after validation: its platform state plus
// the collective to evaluate.
type batchQueryPlan struct {
	plat *batchPlatform
	q    models.Query
}

// handlePredict answers /predict. A canonical body reaches it decoded
// by decodeJSON's scanner, with no allocation per row; each distinct
// platform's key is resolved once, without building its cluster.
// Validation failures reject the whole request with 400 (they are
// client bugs).
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req PredictRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	unary := req.Queries == nil
	rows := req.Queries
	var one [1]BatchQuery
	if unary {
		rows = one[:]
	} else {
		if len(rows) == 0 {
			httpError(w, http.StatusBadRequest, "queries must not be empty in batch mode")
			return
		}
		s.metrics.BatchSize(len(rows))
	}

	plans := make([]batchQueryPlan, len(rows))
	order, bad, err := plan(&req, rows, plans, make([]*batchPlatform, 0, 4))
	if err != nil {
		if unary {
			httpError(w, http.StatusBadRequest, "%v", err)
		} else {
			httpError(w, http.StatusBadRequest, "query %d: %v", bad, err)
		}
		return
	}
	refused := s.resolve(r.Context(), order)
	if unary && order[0].entry == nil {
		s.writeWorkError(w, "predict", order[0].err)
		return
	}
	if refused {
		// A batch refused admission is one shed request, however many
		// of its keys missed.
		s.metrics.Shed("predict")
	}

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
	shape := "batch"
	if unary {
		shape = "unary"
	}
	s.metrics.Prediction("hit", shape, hits)
	s.metrics.Prediction("estimated", shape, estimated)
	s.metrics.Prediction("joined", shape, joined)

	// Stream the answer through a pooled buffer: the per-item
	// rendering is hand-appended JSON, no per-item encoder or map
	// allocation.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bp := batchBufs.Get().(*[]byte)
	b := (*bp)[:0]
	if !unary {
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, int64(len(plans)), 10)
		b = append(b, `,"errors":`...)
		b = strconv.AppendInt(b, failed, 10)
		b = append(b, `,"results":[`...)
	}
	for i := range plans {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendItem(b, &plans[i])
		if len(b) >= batchFlushBytes {
			w.Write(b)
			b = b[:0]
		}
	}
	if !unary {
		b = append(b, `]}`...)
	}
	b = append(b, '\n')
	w.Write(b)
	*bp = b[:0]
	batchBufs.Put(bp)
}

// plan merges each row over the request's defaults, validates it for
// its platform and fills plans, grouping the rows by distinct platform:
// order, which the caller passes empty (an array in the caller's frame
// keeps it off the heap), receives the platforms in first-seen order,
// so that they resolve deterministically. On a validation failure plan
// returns the failing row's index and the error.
func plan(req *PredictRequest, rows []BatchQuery, plans []batchQueryPlan, order []*batchPlatform) ([]*batchPlatform, int, error) {
	def := QueryRow{Op: req.Op, Alg: req.Alg, M: req.M, Root: req.Root, Degree: req.Degree, Segment: req.Segment}
	platforms := map[platformRequest]*batchPlatform{}
	pieces := 0
	for i := range rows {
		q := &rows[i]
		plat := q.platform(req.platformRequest)
		st, ok := platforms[plat]
		if !ok {
			key, err := plat.key()
			if err != nil {
				return nil, i, err
			}
			st = &batchPlatform{key: key}
			platforms[plat] = st
			order = append(order, st)
		}
		query, err := q.Merge(def).Query(st.key.Nodes)
		if err != nil {
			return nil, i, err
		}
		if pieces += segmentPieces(query); pieces > maxSegmentPieces {
			return nil, i, fmt.Errorf("segmented queries need more than %d pieces in total, the per-request limit", maxSegmentPieces)
		}
		plans[i] = batchQueryPlan{plat: st, q: query}
	}
	return order, 0, nil
}

// resolve finds each platform's model set. Hits stay on the lock-free
// read path; a miss is refused during drain, and otherwise all of the
// misses share one admission slot, claimed by the first. A platform
// left without an entry records why, with its typed code and message.
// resolve reports whether admission refused the request.
func (s *Server) resolve(ctx context.Context, order []*batchPlatform) (refused bool) {
	var release func()
	var admitErr error
	for _, st := range order {
		if entry, ok := s.reg.LookupHit(st.key); ok {
			st.entry, st.cache = entry, "hit"
			continue
		}
		if s.draining.Load() {
			st.err = &DrainingError{}
			continue
		}
		if release == nil && admitErr == nil {
			release, admitErr = s.adm.acquire(ctx)
		}
		if admitErr != nil {
			st.err = admitErr
			continue
		}
		entry, hit, err := s.reg.GetOrEstimate(ctx, st.key)
		switch {
		case err != nil:
			st.err = err
		case hit:
			// A concurrent estimation landed between the lookup above
			// and GetOrEstimate: this request rode someone else's work.
			st.entry, st.cache = entry, "joined"
		default:
			st.entry, st.cache = entry, "estimated"
		}
	}
	if release != nil {
		release()
	}
	// A resolved key's string comes rendered with its entry; only a
	// failed key renders one per request.
	for _, st := range order {
		if st.entry != nil {
			st.keyStr = st.entry.keyStr
			continue
		}
		st.keyStr = st.key.String()
		_, st.code, st.msg, _ = workError(st.err)
	}
	return admitErr != nil
}

// batchFlushBytes is the streaming threshold: the response buffer is
// flushed to the wire whenever it grows past this.
const batchFlushBytes = 32 << 10

// batchBufs pools the /predict response buffers (pointer-to-slice so
// the pool holds the backing array, not a copy of the header).
var batchBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// appendItem renders one planned query as a /predict item onto b: its
// key, then its cache state and AppendAnswer's members, or its typed
// error. Registry key strings contain no characters needing JSON
// escaping, so they are appended verbatim inside quotes; error messages
// go through strconv.AppendQuote.
func appendItem(b []byte, p *batchQueryPlan) []byte {
	st := p.plat
	b = append(b, `{"key":"`...)
	b = append(b, st.keyStr...)
	if st.entry == nil {
		b = append(b, `","code":"`...)
		b = append(b, st.code...)
		b = append(b, `","error":`...)
		b = strconv.AppendQuote(b, st.msg)
		return append(b, '}')
	}
	b = append(b, `","cache":"`...)
	b = append(b, st.cache...)
	b = append(b, `",`...)
	b = AppendAnswer(b, &st.entry.preds, st.entry.LMO, p.q)
	return append(b, '}')
}
