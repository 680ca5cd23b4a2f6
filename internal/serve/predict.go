package serve

// The prediction kernel: the per-query evaluate path shared by the
// unary and batched /predict handlers. It is the part of the service
// the paper's pitch depends on — closed-form predictions cheap enough
// to drive online algorithm selection — so it is annotated
// //lmovet:hotpath and pinned allocation-free for the linear
// algorithms by TestPredictHotPathZeroAlloc (run by the bench-smoke CI
// job): a cached prediction costs a snapshot load, a map probe, and six
// Predict(Query) evaluations, with no heap traffic.

import (
	"fmt"
	"sync"

	"repro/internal/collective"
	"repro/internal/models"
)

// The model families a registry entry can hold, in render order.
const (
	famHockney = iota
	famHetHockney
	famLogP
	famLogGP
	famPLogP
	famLMO
	numFamilies
)

// familyNames are the JSON keys of the prediction map, indexed by
// family.
var familyNames = [numFamilies]string{
	"hockney", "het-hockney", "logp", "loggp", "plogp", "lmo",
}

// maxSegmentPieces bounds the work one request may ask for: a segmented
// query costs ceil(m/segment) per-piece evaluations in every family, so
// a request whose segmented queries need more pieces than this in total
// is rejected. 4096 pieces covers a 4 MiB block in 1 KiB segments.
const maxSegmentPieces = 4096

// QueryRow is one /predict query with the request defaults merged in:
// the operation and algorithm names plus the geometry. Degree and
// Segment map one-to-one onto the models.Query fields of the same names
// (0 = unset).
type QueryRow struct {
	Op, Alg                  string
	M, Root, Degree, Segment int
}

// Query validates the row for an n-node platform and converts it into
// the models.Query the kernel evaluates; an empty Alg means linear.
// cmd/predict parses its -batch rows through the same conversion.
func (r QueryRow) Query(n int) (models.Query, error) {
	if r.M <= 0 {
		return models.Query{}, fmt.Errorf("m must be a positive block size in bytes")
	}
	coll, err := models.ParseCollective(r.Op)
	if err != nil {
		return models.Query{}, fmt.Errorf("op must be scatter, gather, bcast or reduce")
	}
	alg := collective.AlgLinear
	if r.Alg != "" {
		if alg, err = collective.ParseAlg(r.Alg); err != nil {
			return models.Query{}, fmt.Errorf("alg must be linear, binomial, binary or chain")
		}
	}
	if r.Root < 0 || r.Root >= n {
		return models.Query{}, fmt.Errorf("root must be in [0, %d)", n)
	}
	q := models.Query{Coll: coll, Alg: alg, Root: r.Root, N: n, M: r.M, Degree: r.Degree, Segment: r.Segment}
	if err := q.Validate(); err != nil {
		return models.Query{}, err
	}
	if p := segmentPieces(q); p > maxSegmentPieces {
		return models.Query{}, fmt.Errorf("segment %d splits m=%d into %d pieces; at most %d per request",
			q.Segment, q.M, p, maxSegmentPieces)
	}
	return q, nil
}

// segmentPieces is the number of per-piece evaluations a segmented
// query costs (0 for an unsegmented one).
func segmentPieces(q models.Query) int {
	if q.Segment <= 0 || q.Segment >= q.M {
		return 0
	}
	p := q.M / q.Segment
	if q.M%q.Segment != 0 {
		p++
	}
	return p
}

// predictInto evaluates every model family the entry holds on the
// query, writing values into out (indexed by family) and reporting a
// bitmask of the families that answered; a family whose Predict errors
// (a shape outside its capabilities) is left out. The arrays live in
// the caller's frame: the kernel itself performs no allocation.
//
//lmovet:hotpath
func (e *Entry) predictInto(q models.Query, out *[numFamilies]float64) uint8 {
	var mask uint8
	for i := 0; i < numFamilies; i++ {
		p := e.preds[i]
		if p == nil {
			continue
		}
		v, err := p.Predict(q)
		if err != nil {
			continue
		}
		out[i] = v
		mask |= 1 << i
	}
	return mask
}

// GatherBand returns the escalation band an LMO model brackets a plain
// linear gather with, when its empirical parameters cover q (ok is
// false otherwise, including for a nil model).
func GatherBand(lmo *models.LMOX, q models.Query) (lo, hi float64, ok bool) {
	if q.Coll != models.CollGather || q.Alg != collective.AlgLinear || q.Degree != 0 || segmentPieces(q) != 0 {
		return 0, 0, false
	}
	if lmo == nil || !lmo.Gather.Valid() || lmo.N() != q.N {
		return 0, 0, false
	}
	lo, hi = lmo.GatherLinearBand(q.Root, q.N, q.M)
	return lo, hi, hi > lo
}

// predMaps pools the per-response prediction maps of the unary path:
// the map is filled, marshalled, cleared and reused, so steady-state
// unary predicts allocate no fresh map per request.
var predMaps = sync.Pool{
	New: func() any { return make(map[string]float64, numFamilies) },
}

// predictAll evaluates the entry on the query into the provided map
// (obtained from predMaps and reused across requests).
func predictAll(e *Entry, q models.Query, out map[string]float64) {
	var vals [numFamilies]float64
	mask := e.predictInto(q, &vals)
	for i := 0; i < numFamilies; i++ {
		if mask&(1<<i) != 0 {
			out[familyNames[i]] = vals[i]
		}
	}
}
