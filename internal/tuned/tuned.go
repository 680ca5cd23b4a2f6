// Package tuned provides model-driven, drop-in collective operations —
// the direction of the paper's reference [10] (optimization of
// collectives in HeteroMPI): at call time a Tuner consults an
// estimated communication performance model to pick the collective
// algorithm, and for gather applies the LMO empirical parameters to
// split messages that would fall into the TCP irregularity region.
//
// All decisions are pure functions of the (shared) model and the call
// shape, so every rank of an SPMD program reaches the same decision
// without extra communication.
package tuned

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/optimize"
)

// Tuner holds the model(s) driving the decisions and a decision cache.
// A single Tuner must be shared by all ranks of a job (decisions stay
// consistent because it is read-mostly and the simulation kernel is
// cooperatively scheduled; in a real MPI setting each process would
// hold an identical copy of the model file).
//
// A Tuner built from an auto-tuned decision table (NewFromTable)
// consults the table first: a matching rule fixes the full candidate
// shape — algorithm, tree degree, segment size — and only sizes no
// rule covers fall back to on-line model decisions.
type Tuner struct {
	model models.CollectivePredictor
	lmo   *models.LMOX // non-nil when the model is an LMO: enables splitting
	table *Table       // non-nil in table-driven mode
	n     int

	cache map[decisionKey]decision
	stats Stats
}

// Stats counts the tuner's decisions, for reports and tests.
type Stats struct {
	ScatterCalls int
	GatherCalls  int
	Splits       int
	CacheHits    int
	TableHits    int
	ByAlg        map[string]int
}

type decisionKey struct {
	op     byte // 's' or 'g'
	root   int
	bucket int // log2 size bucket
}

// decision is a resolved candidate shape: the algorithm family plus an
// optional k-ary tree degree and segment size (0 each when unused).
type decision struct {
	alg     mpi.Alg
	degree  int
	segment int
}

// New builds a tuner over any model on the predictor interface
// (models.CollectivePredictor) for an n-rank job.
func New(model models.CollectivePredictor, n int) *Tuner {
	t := &Tuner{model: model, n: n, cache: map[decisionKey]decision{}}
	t.stats.ByAlg = map[string]int{}
	if lmo, ok := model.(*models.LMOX); ok {
		t.lmo = lmo
	}
	return t
}

// NewFromTable builds a table-driven tuner: decisions come from the
// auto-tuned table where it has rules, and from the model where it
// does not. The model may be nil when the table covers every size the
// program uses (uncovered sizes then fall back to linear).
func NewFromTable(tbl *Table, model models.CollectivePredictor, n int) (*Tuner, error) {
	if tbl == nil {
		return nil, fmt.Errorf("tuned: nil decision table")
	}
	if err := tbl.Validate(); err != nil {
		return nil, err
	}
	if tbl.Meta != nil && tbl.Meta.Nodes != 0 && tbl.Meta.Nodes != n {
		return nil, fmt.Errorf("tuned: decision table was tuned for %d nodes, job has %d", tbl.Meta.Nodes, n)
	}
	var t *Tuner
	if model != nil {
		t = New(model, n)
	} else {
		t = &Tuner{n: n, cache: map[decisionKey]decision{}}
		t.stats.ByAlg = map[string]int{}
	}
	t.table = tbl
	return t, nil
}

// Model returns the model driving the fallback decisions (nil for a
// purely table-driven tuner).
func (t *Tuner) Model() models.CollectivePredictor { return t.model }

// Table returns the decision table, if the tuner is table-driven.
func (t *Tuner) Table() *Table { return t.table }

// Stats returns a snapshot of the decision counters.
func (t *Tuner) Stats() Stats {
	s := t.stats
	s.ByAlg = map[string]int{}
	// Plain map copy: same keys in, same keys out, order-free.
	//lmovet:commutative
	for k, v := range t.stats.ByAlg {
		s.ByAlg[k] = v
	}
	return s
}

// bucket maps a size to its log2 bucket so the decision cache stays
// small while nearby sizes share decisions.
func bucket(m int) int {
	if m <= 0 {
		return 0
	}
	return bits.Len(uint(m))
}

// tableDecision consults the decision table for a size. Table lookups
// bypass the log2-bucket cache on purpose: a rule boundary can fall
// inside a bucket, and two sizes sharing a bucket may land on
// different rules.
func (t *Tuner) tableDecision(op Op, m int) (decision, string, bool) {
	if t.table == nil {
		return decision{}, "", false
	}
	rule, ok := t.table.Lookup(op, m)
	if !ok {
		return decision{}, "", false
	}
	alg, err := rule.AlgValue()
	if err != nil {
		// Validate() rejects unparseable algs, so this is unreachable
		// for tables built through NewFromTable; be safe anyway.
		return decision{}, "", false
	}
	t.stats.TableHits++
	return decision{alg: alg, degree: rule.Degree, segment: rule.Segment}, rule.String(), true
}

// decide picks (and caches) the algorithm for a size from the fallback
// model.
func (t *Tuner) decide(op byte, coll models.Collective, root, m int) decision {
	key := decisionKey{op, root, bucket(m)}
	if d, ok := t.cache[key]; ok {
		t.stats.CacheHits++
		return d
	}
	d := decision{alg: mpi.Linear}
	if t.model != nil {
		alg, _ := optimize.SelectAlgAmong(t.model, coll, root, t.n, m, nil)
		d.alg = alg
	}
	t.cache[key] = d
	return d
}

// Scatter distributes blocks with the table- or model-chosen shape.
func (t *Tuner) Scatter(r *mpi.Rank, root int, blocks [][]byte) []byte {
	t.checkN(r)
	m := 0
	if r.Rank() == root && len(blocks) > 0 {
		m = len(blocks[0])
	}
	// Every rank must agree on the size; non-roots learn it from the
	// model-independent convention that scatter block sizes are global
	// knowledge in SPMD code (as in MPI, where recvcount is an argument).
	m = t.agreeSize(r, root, m)
	d, label, fromTable := t.tableDecision(OpScatter, m)
	if !fromTable {
		d = t.decide('s', models.CollScatter, root, m)
		label = d.alg.String()
	}
	t.stats.ScatterCalls++
	t.stats.ByAlg[label]++
	return r.ScatterShape(d.alg, d.degree, d.segment, root, m, blocks)
}

// Gather collects blocks with the table- or model-chosen shape; with
// no table rule, when the block size falls inside the LMO empirical
// irregularity region the message is split into sub-M1 segments (the
// Fig 7 optimization).
func (t *Tuner) Gather(r *mpi.Rank, root int, block []byte) [][]byte {
	t.checkN(r)
	m := len(block)
	t.stats.GatherCalls++
	if d, label, ok := t.tableDecision(OpGather, m); ok {
		if d.segment > 0 && d.segment < m {
			t.stats.Splits++
		}
		t.stats.ByAlg[label]++
		return r.GatherShape(d.alg, d.degree, d.segment, root, block)
	}
	if t.lmo != nil && optimize.ShouldSplitGather(t.lmo.Gather, m) {
		t.stats.Splits++
		t.stats.ByAlg["split-linear"]++
		return optimize.OptimizedGather(r, root, block, t.lmo.Gather)
	}
	d := t.decide('g', models.CollGather, root, m)
	t.stats.ByAlg[d.alg.String()]++
	return r.Gather(d.alg, root, block)
}

// agreeSize shares the root's block size with every rank at harness
// level (all ranks already know it in well-formed SPMD code; this
// guards against roots with empty block lists).
func (t *Tuner) agreeSize(r *mpi.Rank, root, m int) int {
	cell := r.SharedCell()
	if r.Rank() == root {
		cell.V = m
	}
	r.HardSync()
	return cell.V.(int)
}

func (t *Tuner) checkN(r *mpi.Rank) {
	if r.Size() != t.n {
		panic(fmt.Sprintf("tuned: tuner built for %d ranks, used with %d", t.n, r.Size()))
	}
}

// ProportionalCounts distributes total bytes across processors in
// inverse proportion to their per-byte processing cost under the LMO
// model — fast processors receive more data, the heterogeneous
// data-partitioning step of the paper's introduction. The counts sum
// exactly to total; every processor receives at least minPer bytes
// (when total allows).
func ProportionalCounts(lmo *models.LMOX, total, minPer int) []int {
	n := lmo.N()
	speeds := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		t := lmo.T[i]
		if t <= 0 {
			t = 1e-12
		}
		speeds[i] = 1 / t
		sum += speeds[i]
	}
	counts := make([]int, n)
	assigned := 0
	for i := 0; i < n; i++ {
		c := int(float64(total) * speeds[i] / sum)
		if c < minPer {
			c = minPer
		}
		counts[i] = c
		assigned += c
	}
	// Reconcile rounding drift on the fastest processors first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return speeds[order[a]] > speeds[order[b]] })
	for i := 0; assigned != total && i < 4*n; i++ {
		p := order[i%n]
		switch {
		case assigned < total:
			counts[p]++
			assigned++
		case assigned > total && counts[p] > minPer:
			counts[p]--
			assigned--
		}
	}
	return counts
}
