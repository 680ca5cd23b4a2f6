// Package tuned provides model-driven, drop-in collective operations —
// the direction of the paper's reference [10] (optimization of
// collectives in HeteroMPI): at call time a Tuner turns the call into
// one collective shape, from an auto-tuned decision table or from an
// estimated communication performance model, and for gather applies
// the LMO empirical parameters to split messages that would fall into
// the TCP irregularity region.
//
// All decisions are pure functions of the (shared) model or table and
// the call shape (operation, root, exact size), so every rank of an
// SPMD program reaches the same decision without extra communication.
package tuned

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/optimize"
)

// Tuner holds the model or table driving the decisions and a decision
// cache. A single Tuner must be shared by all ranks of a job (decisions
// stay consistent because it is read-mostly and the simulation kernel
// is cooperatively scheduled; in a real MPI setting each process would
// hold an identical copy of the model file).
type Tuner struct {
	model  models.CollectivePredictor // nil in a table-driven tuner
	region models.GatherEmpirical     // the LMO irregular region, if any
	table  *Table                     // non-nil in table-driven mode
	n      int

	cache map[decisionKey]optimize.Shape
	stats Stats
}

// Stats counts the tuner's decisions, for reports and tests. ByAlg
// counts calls by the shape they ran ("binomial", "linear+seg4096").
type Stats struct {
	ScatterCalls int
	GatherCalls  int
	Splits       int
	CacheHits    int
	TableHits    int
	ByAlg        map[string]int
}

type decisionKey struct {
	op      Op
	root, m int
}

// New builds a tuner over any model on the predictor interface
// (models.CollectivePredictor) for an n-rank job. An LMO model's gather
// irregularity, which enables splitting, is read here: attach it first.
func New(model models.CollectivePredictor, n int) *Tuner {
	t := &Tuner{model: model, n: n, cache: map[decisionKey]optimize.Shape{}}
	t.stats.ByAlg = map[string]int{}
	if lmo, ok := model.(*models.LMOX); ok {
		t.region = lmo.Gather
	}
	return t
}

// NewFromTable builds a table-driven tuner for an n-rank job: the
// auto-tuned table decides every size it has a rule for, and linear
// runs the sizes it does not cover. A table decides for the root it
// was tuned at; a call at another root fails the job.
func NewFromTable(tbl *Table, n int) (*Tuner, error) {
	if tbl == nil {
		return nil, fmt.Errorf("tuned: nil decision table")
	}
	if err := tbl.Validate(); err != nil {
		return nil, err
	}
	if tbl.Meta != nil && tbl.Meta.Nodes != 0 && tbl.Meta.Nodes != n {
		return nil, fmt.Errorf("tuned: decision table was tuned for %d nodes, job has %d", tbl.Meta.Nodes, n)
	}
	t := New(nil, n)
	t.table = tbl
	return t, nil
}

// Stats returns a snapshot of the decision counters.
func (t *Tuner) Stats() Stats {
	s := t.stats
	s.ByAlg = maps.Clone(t.stats.ByAlg)
	return s
}

// decide turns an m-byte call at root into one shape: the covering
// table rule; else, for a gather strictly inside the LMO irregular
// region (M1, M2), linear split into M1-byte segments (the Fig 7
// optimization); else the algorithm the model ranks first (linear
// without a model). Table lookups are counted per call; the other
// decisions are cached by the exact (op, root, m). A table decides
// only at the root it was tuned at: another root panics, failing the
// job.
func (t *Tuner) decide(op Op, coll models.Collective, root, m int) optimize.Shape {
	if t.table != nil {
		if root != t.table.Root {
			panic(fmt.Sprintf("tuned: decision table was tuned for root %d, called with root %d", t.table.Root, root))
		}
		if rule, ok := t.table.Lookup(op, m); ok {
			t.stats.TableHits++
			s, _ := rule.Shape() // NewFromTable validated every rule
			return s
		}
	}
	key := decisionKey{op, root, m}
	if s, ok := t.cache[key]; ok {
		t.stats.CacheHits++
		return s
	}
	s := optimize.Shape{Alg: mpi.Linear}
	if op == OpGather {
		s = optimize.OptimizedGatherShape(t.region, m)
	}
	if s.Segment == 0 && t.model != nil {
		s.Alg, _ = optimize.SelectAlgAmong(t.model, coll, root, t.n, m, nil)
	}
	t.cache[key] = s
	return s
}

// Scatter distributes blocks with the decided shape.
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
	s := t.decide(OpScatter, models.CollScatter, root, m)
	t.stats.ScatterCalls++
	t.stats.ByAlg[s.String()]++
	return r.ScatterShape(s.Alg, s.Degree, s.Segment, root, m, blocks)
}

// Gather collects blocks with the decided shape.
func (t *Tuner) Gather(r *mpi.Rank, root int, block []byte) [][]byte {
	t.checkN(r)
	m := len(block)
	s := t.decide(OpGather, models.CollGather, root, m)
	t.stats.GatherCalls++
	t.stats.ByAlg[s.String()]++
	if s.Segment > 0 && s.Segment < m {
		t.stats.Splits++
	}
	return r.GatherShape(s.Alg, s.Degree, s.Segment, root, block)
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
