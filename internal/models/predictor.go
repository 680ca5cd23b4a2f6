package models

import (
	"fmt"

	"repro/internal/collective"
)

// Collective names a collective operation for the unified predictor
// interface.
type Collective uint8

// The collective operations the models predict.
const (
	CollScatter Collective = iota
	CollGather
	CollBcast
	CollReduce
)

// String returns the operation name.
func (c Collective) String() string {
	switch c {
	case CollScatter:
		return "scatter"
	case CollGather:
		return "gather"
	case CollBcast:
		return "bcast"
	case CollReduce:
		return "reduce"
	default:
		return fmt.Sprintf("Collective(%d)", int(c))
	}
}

// ParseCollective is the inverse of String.
func ParseCollective(s string) (Collective, error) {
	switch s {
	case "scatter":
		return CollScatter, nil
	case "gather":
		return CollGather, nil
	case "bcast":
		return CollBcast, nil
	case "reduce":
		return CollReduce, nil
	default:
		return 0, fmt.Errorf("models: unknown collective %q", s)
	}
}

// Query describes one collective execution to predict: the operation,
// the algorithm shaping its communication tree, and the job geometry.
// New algorithm or shape dimensions (tree degree, segmentation) extend
// the query rather than the interface.
type Query struct {
	Coll Collective     // the operation
	Alg  collective.Alg // the algorithm family
	Root int            // root rank
	N    int            // number of participants
	M    int            // block size in bytes

	// Degree, when >= 2, replaces the algorithm's natural tree with a
	// k-ary tree of that degree. It generalizes AlgBinary (k = 2) and
	// is only meaningful with that algorithm family.
	Degree int

	// Segment, when > 0 and < M, splits the message into
	// ceil(M/Segment) pieces predicted as a series of back-to-back
	// collectives — the cost shape of optimize.OptimizedGather's
	// segmented execution.
	Segment int

	// Tree, when non-nil, overrides Alg and Degree with an explicit
	// communication tree (optimized processor mappings).
	Tree *collective.Tree
}

// Validate rejects geometrically impossible queries before any model
// arithmetic runs; every Predict applies it.
func (q Query) Validate() error {
	if q.N < 1 {
		return fmt.Errorf("models: query needs at least 1 rank, got %d", q.N)
	}
	if q.Root < 0 || q.Root >= q.N {
		return fmt.Errorf("models: query root %d outside [0, %d)", q.Root, q.N)
	}
	if q.M < 0 {
		return fmt.Errorf("models: query block size %d is negative", q.M)
	}
	if q.Segment < 0 {
		return fmt.Errorf("models: query segment %d is negative", q.Segment)
	}
	switch q.Coll {
	case CollScatter, CollGather, CollBcast, CollReduce:
	default:
		return fmt.Errorf("models: unknown collective %d", q.Coll)
	}
	if q.Degree != 0 {
		if q.Degree < 2 {
			return fmt.Errorf("models: query tree degree %d must be >= 2", q.Degree)
		}
		if q.Tree == nil && q.Alg != collective.AlgBinary {
			return fmt.Errorf("models: tree degree applies to the k-ary (binary) family, not %v", q.Alg)
		}
	}
	if q.Tree != nil && q.Tree.N != q.N {
		return fmt.Errorf("models: query tree spans %d ranks, query has %d", q.Tree.N, q.N)
	}
	return nil
}

// tree resolves the communication tree the query describes (nil for
// the flat special forms handled by predictTree).
func (q Query) tree() *collective.Tree {
	switch {
	case q.Tree != nil:
		return q.Tree
	case q.Degree >= 2:
		return collective.KAry(q.N, q.Root, q.Degree)
	default:
		return q.Alg.Tree(q.N, q.Root)
	}
}

// Capabilities describes what a predictor can answer, so tuners and
// serving layers can route queries without type switches.
type Capabilities struct {
	// Trees: the model predicts arbitrary communication trees (every
	// algorithm family, explicit Query.Tree, k-ary degrees). Without
	// it only linear and binomial scatter/gather resolve.
	Trees bool
	// Irregular: linear-gather predictions include the empirical TCP
	// escalation branches of eq (5).
	Irregular bool
	// PerNode: parameters are per-processor/per-link, so predictions
	// are pinned to the estimated cluster size (queries with a
	// different N fail instead of extrapolating).
	PerNode bool
	// Simulates: predictions come from discrete-event simulation
	// rather than a closed form — accurate, orders of magnitude
	// slower; tuners use it to validate, never to enumerate.
	Simulates bool
}

// CollectivePredictor is the prediction interface: one Alg-keyed
// Predict entry point over the whole algorithm zoo plus a capabilities
// surface. All seven models implement it, as does the
// simulator-backed predictor in internal/autotune.
type CollectivePredictor interface {
	Name() string
	// P2P predicts one message of m bytes from src to dst.
	P2P(src, dst, m int) float64
	// Capabilities reports what queries this predictor can answer.
	Capabilities() Capabilities
	// Predict returns the predicted execution time of the queried
	// collective in seconds, or an error when the query is invalid or
	// outside the predictor's capabilities.
	Predict(Query) (float64, error)
}

// closedForms is the per-algorithm surface predictTree dispatches
// over: a tree-capable model's closed forms for linear and binomial
// scatter/gather (eqs (1)–(5)) plus its tree recursions.
type closedForms interface {
	ScatterLinear(root, n, m int) float64
	GatherLinear(root, n, m int) float64
	ScatterBinomial(root, n, m int) float64
	GatherBinomial(root, n, m int) float64
	ScatterTree(tree *collective.Tree, m int) float64
	GatherTree(tree *collective.Tree, m int) float64
	BcastTree(tree *collective.Tree, m int) float64
	ReduceTree(tree *collective.Tree, m int) float64
}

// predictTree answers a query with a tree-capable model: flat-tree
// scatter/gather resolve through ScatterLinear/GatherLinear (keeping
// eq (4) and the empirical eq (5) branches), binomial scatter/gather
// through the per-model closed forms, everything else through the tree
// recursions. Segmented queries sum ceil(M/Segment) per-piece
// predictions.
func predictTree(p closedForms, q Query) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if q.Segment > 0 && q.Segment < q.M {
		return predictSegmented(func(piece Query) (float64, error) { return predictTree(p, piece) }, q)
	}
	if q.Tree == nil && q.Degree == 0 {
		// The special forms: eq (4)/(5) for the flat tree (including
		// the empirical gather branches) and the per-model binomial
		// closed forms of eq (3).
		switch {
		case q.Alg == collective.AlgLinear && q.Coll == CollScatter:
			return p.ScatterLinear(q.Root, q.N, q.M), nil
		case q.Alg == collective.AlgLinear && q.Coll == CollGather:
			return p.GatherLinear(q.Root, q.N, q.M), nil
		case q.Alg == collective.AlgBinomial && q.Coll == CollScatter:
			return p.ScatterBinomial(q.Root, q.N, q.M), nil
		case q.Alg == collective.AlgBinomial && q.Coll == CollGather:
			return p.GatherBinomial(q.Root, q.N, q.M), nil
		}
	}
	tree := q.tree()
	switch q.Coll {
	case CollScatter:
		return p.ScatterTree(tree, q.M), nil
	case CollGather:
		return p.GatherTree(tree, q.M), nil
	case CollBcast:
		return p.BcastTree(tree, q.M), nil
	default:
		return p.ReduceTree(tree, q.M), nil
	}
}

// predictSegmented sums the per-piece predictions of a segmented
// query; the pieces run back to back, so their times add. The loop
// counts down the remaining bytes, so no offset can overflow.
func predictSegmented(predict func(Query) (float64, error), q Query) (float64, error) {
	total := 0.0
	for rest := q.M; rest > 0; rest -= q.Segment {
		piece := q
		piece.Segment = 0
		piece.M = min(rest, q.Segment)
		t, err := predict(piece)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// Compile-time checks: every model in the zoo implements the unified
// interface.
var (
	_ CollectivePredictor = (*Hockney)(nil)
	_ CollectivePredictor = (*HetHockney)(nil)
	_ CollectivePredictor = (*LogP)(nil)
	_ CollectivePredictor = (*LogGP)(nil)
	_ CollectivePredictor = (*PLogP)(nil)
	_ CollectivePredictor = (*LMOX)(nil)
	_ CollectivePredictor = (*LMO)(nil)
)

// Capabilities implements CollectivePredictor.
func (h *Hockney) Capabilities() Capabilities { return Capabilities{Trees: true} }

// Predict implements CollectivePredictor.
func (h *Hockney) Predict(q Query) (float64, error) { return predictTree(h, q) }

// Capabilities implements CollectivePredictor.
func (h *HetHockney) Capabilities() Capabilities {
	return Capabilities{Trees: true, PerNode: true}
}

// Predict implements CollectivePredictor.
func (h *HetHockney) Predict(q Query) (float64, error) {
	if n := h.N(); q.N != n {
		return 0, fmt.Errorf("models: %s estimated for %d processors, query has %d", h.Name(), n, q.N)
	}
	return predictTree(h, q)
}

// Capabilities implements CollectivePredictor.
func (l *LogP) Capabilities() Capabilities { return Capabilities{Trees: true} }

// Predict implements CollectivePredictor.
func (l *LogP) Predict(q Query) (float64, error) { return predictTree(l, q) }

// Capabilities implements CollectivePredictor.
func (l *LogGP) Capabilities() Capabilities { return Capabilities{Trees: true} }

// Predict implements CollectivePredictor.
func (l *LogGP) Predict(q Query) (float64, error) { return predictTree(l, q) }

// Capabilities implements CollectivePredictor.
func (p *PLogP) Capabilities() Capabilities { return Capabilities{Trees: true} }

// Predict implements CollectivePredictor.
func (p *PLogP) Predict(q Query) (float64, error) { return predictTree(p, q) }

// Capabilities implements CollectivePredictor.
func (x *LMOX) Capabilities() Capabilities {
	return Capabilities{Trees: true, PerNode: true, Irregular: x.Gather.Valid()}
}

// Predict implements CollectivePredictor. Segmented flat linear
// scatter/gather resolves through the pipelined closed form
// (linearSegmented) — the separated parameters distinguish the root's
// serialized slots from the overlapped tail, so back-to-back segments
// need not be charged the generic sum-of-whole-ops predictSegmented
// uses for every other shape.
func (x *LMOX) Predict(q Query) (float64, error) {
	if q.N != x.N() {
		return 0, fmt.Errorf("models: LMO estimated for %d processors, query has %d", x.N(), q.N)
	}
	if q.Segment > 0 && q.Segment < q.M && q.Tree == nil && q.Degree == 0 &&
		q.Alg == collective.AlgLinear && (q.Coll == CollScatter || q.Coll == CollGather) {
		if err := q.Validate(); err != nil {
			return 0, err
		}
		return x.linearSegmented(q.Coll, q.Root, q.N, q.M, q.Segment), nil
	}
	return predictTree(x, q)
}

// Capabilities implements CollectivePredictor: the original
// five-parameter model predicts only the closed forms of the paper's
// evaluation (linear and binomial scatter/gather).
func (l *LMO) Capabilities() Capabilities { return Capabilities{PerNode: true} }

// Predict implements CollectivePredictor.
func (l *LMO) Predict(q Query) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if q.N != l.N() {
		return 0, fmt.Errorf("models: %s estimated for %d processors, query has %d", l.Name(), l.N(), q.N)
	}
	if q.Segment > 0 && q.Segment < q.M {
		return predictSegmented(l.Predict, q)
	}
	if q.Tree != nil || q.Degree != 0 {
		return 0, fmt.Errorf("models: %s predicts no tree shapes beyond linear and binomial", l.Name())
	}
	switch {
	case q.Coll == CollScatter && q.Alg == collective.AlgLinear:
		return l.ScatterLinear(q.Root, q.N, q.M), nil
	case q.Coll == CollScatter && q.Alg == collective.AlgBinomial:
		return l.ScatterBinomial(q.Root, q.N, q.M), nil
	case q.Coll == CollGather && q.Alg == collective.AlgLinear:
		return l.GatherLinear(q.Root, q.N, q.M), nil
	case q.Coll == CollGather && q.Alg == collective.AlgBinomial:
		return l.GatherBinomial(q.Root, q.N, q.M), nil
	default:
		return 0, fmt.Errorf("models: %s cannot predict %v %v", l.Name(), q.Alg, q.Coll)
	}
}
