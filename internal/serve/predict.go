package serve

// The prediction kernel: the per-query evaluate path shared by the
// unary and batched /predict handlers. It is the part of the service
// the paper's pitch depends on — closed-form predictions cheap enough
// to drive online algorithm selection — so it is annotated
// //lmovet:hotpath and pinned allocation-free for every algorithm and
// collective by TestPredictHotPathZeroAlloc (run by the bench-smoke CI
// job): a cached prediction costs a snapshot load, a map probe, and six
// Predict(Query) evaluations, with no heap traffic. Tree shapes recurse
// over the shared trees of collective.ShapeTree, built once per shape.

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/collective"
	"repro/internal/models"
)

// The model families a registry entry can hold, in render order: the
// order of models.Set.Predictors.
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

// predictInto evaluates every model family of the table preds (indexed
// by family, nil where absent) on the query, writing values into out
// and reporting a bitmask of the families that answered; a family whose
// Predict errors (a shape outside its capabilities) is left out. The
// arrays live in the caller's frame: the kernel itself performs no
// allocation.
//
//lmovet:hotpath
func predictInto(preds *[numFamilies]models.CollectivePredictor, q models.Query, out *[numFamilies]float64) uint8 {
	var mask uint8
	for i, p := range preds {
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

// familyJSON holds the pre-rendered `"name":` fragments of the
// predictions object, indexed by family.
var familyJSON = [numFamilies]string{
	`"hockney":`, `"het-hockney":`, `"logp":`, `"loggp":`, `"plogp":`, `"lmo":`,
}

// AppendAnswer appends the members of one prediction answer to b,
// without the enclosing braces: the query echoed (op, alg, m, nodes,
// root, and degree and segment when set), the predictions of the
// families of preds that answer q, in family order and keyed like
// PredictResponse, and, when lmo's empirical parameters cover q,
// linear gather's escalation band. preds is indexed like
// models.Set.Predictors. Floats render as encoding/json renders them,
// and nothing allocates but the growth of b. /predict wraps the members
// with the key and cache state; cmd/predict -batch prints them as one
// object per line.
func AppendAnswer(b []byte, preds *[numFamilies]models.CollectivePredictor, lmo *models.LMOX, q models.Query) []byte {
	b = append(b, `"op":"`...)
	b = append(b, q.Coll.String()...)
	b = append(b, `","alg":"`...)
	b = append(b, q.Alg.String()...)
	b = append(b, `","m":`...)
	b = strconv.AppendInt(b, int64(q.M), 10)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(q.N), 10)
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
	mask := predictInto(preds, q, &vals)
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
	if lo, hi, ok := GatherBand(lmo, q); ok {
		b = append(b, `,"band_low":`...)
		b = appendJSONFloat(b, lo)
		b = append(b, `,"band_high":`...)
		b = appendJSONFloat(b, hi)
	}
	return b
}

// appendJSONFloat renders a float the way encoding/json does ('f' for
// mid-range magnitudes, 'e' with a trimmed exponent otherwise), so
// hand-rendered answers and encoding/json agree on the bytes of a
// prediction.
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
