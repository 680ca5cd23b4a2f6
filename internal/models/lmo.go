package models

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/stats"
)

// GatherEmpirical holds the empirical parameters of the LMO model for
// linear gather on a TCP cluster (§III, eq 5): the thresholds M1 and M2
// bracketing the irregular region, and the statistics of the observed
// escalations inside it — their most frequent values (modes) and the
// probability of escalation at the region's edges.
type GatherEmpirical struct {
	M1, M2   int          // bytes; 0,0 disables the empirical part
	EscModes []stats.Mode // observed escalation magnitudes, seconds
	ProbLow  float64      // escalation probability near M1
	ProbHigh float64      // escalation probability near M2
}

// Valid reports whether an irregular region is configured.
func (g GatherEmpirical) Valid() bool { return g.M1 > 0 && g.M2 > g.M1 }

// Prob interpolates the escalation probability at message size m.
func (g GatherEmpirical) Prob(m int) float64 {
	if !g.Valid() || m <= g.M1 || m >= g.M2 {
		return 0
	}
	f := float64(m-g.M1) / float64(g.M2-g.M1)
	return g.ProbLow + f*(g.ProbHigh-g.ProbLow)
}

// MeanEscalation returns the count-weighted mean of the escalation
// modes (0 if none were observed).
func (g GatherEmpirical) MeanEscalation() float64 {
	var sum float64
	var cnt int
	for _, m := range g.EscModes {
		sum += m.Value * float64(m.Count)
		cnt += m.Count
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// MaxEscalation returns the largest escalation mode (0 if none).
func (g GatherEmpirical) MaxEscalation() float64 {
	mx := 0.0
	for _, m := range g.EscModes {
		if m.Value > mx {
			mx = m.Value
		}
	}
	return mx
}

// LMOX is the paper's contribution: the extended LMO model with six
// point-to-point parameters that fully separate the constant and
// variable contributions of processors and network:
//
//	T(i→j, M) = C_i + L_ij + C_j + M·(t_i + 1/β_ij + t_j)
//
// C and T are per-processor (fixed and per-byte processing delays),
// L and Beta per-link (fixed latency and transmission rate).
type LMOX struct {
	C    []float64   // fixed processing delay per processor, seconds
	T    []float64   // per-byte processing delay per processor, seconds/byte
	L    [][]float64 // fixed network latency per link, seconds
	Beta [][]float64 // transmission rate per link, bytes/second

	// Gather carries the empirical parameters for linear gather.
	Gather GatherEmpirical
}

// NewLMOX allocates an n-processor extended LMO model. The rows of L
// and of Beta share one backing array each.
func NewLMOX(n int) *LMOX {
	return &LMOX{
		C:    make([]float64, n),
		T:    make([]float64, n),
		L:    squareMatrix(n),
		Beta: squareMatrix(n),
	}
}

// squareMatrix returns an n×n zero matrix whose rows share one backing
// array.
func squareMatrix(n int) [][]float64 {
	all := make([]float64, n*n)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// N returns the number of processors the model covers.
func (x *LMOX) N() int { return len(x.C) }

// Name implements CollectivePredictor.
func (x *LMOX) Name() string { return "LMO" }

// invBeta returns 1/β_ij, tolerating unset (zero) rates as zero cost so
// partially-filled models remain usable in tests.
func (x *LMOX) invBeta(i, j int) float64 {
	b := x.Beta[i][j]
	if b <= 0 {
		return 0
	}
	return 1 / b
}

// P2P implements CollectivePredictor: C_i + L_ij + C_j + M(t_i + 1/β_ij + t_j).
func (x *LMOX) P2P(src, dst, m int) float64 {
	return x.C[src] + x.L[src][dst] + x.C[dst] +
		float64(m)*(x.T[src]+x.invBeta(src, dst)+x.T[dst])
}

// SendCost is the sender-side part C_i + M·t_i.
func (x *LMOX) SendCost(i, m int) float64 { return x.C[i] + float64(m)*x.T[i] }

// WireCost is the network part L_ij + M/β_ij.
func (x *LMOX) WireCost(i, j, m int) float64 {
	return x.L[i][j] + float64(m)*x.invBeta(i, j)
}

// RecvCost is the receiver-side part C_j + M·t_j.
func (x *LMOX) RecvCost(j, m int) float64 { return x.C[j] + float64(m)*x.T[j] }

// remoteTerm is eq (4)/(5)'s per-destination term
// L_ri + M/β_ri + C_i + M·t_i.
func (x *LMOX) remoteTerm(root, i, m int) float64 {
	return x.WireCost(root, i, m) + x.RecvCost(i, m)
}

// predict answers a valid unsegmented query. LMO separates processor
// from network costs, so where the conflated models share eq (1) it
// keeps forms of its own: eqs (4) and (5) for the flat tree, the
// up-tree recursion for binomial gather, and the separated recursions
// for every other tree.
func (x *LMOX) predict(q Query) float64 {
	natural := q.Tree == nil && q.Degree == 0
	switch {
	case natural && q.Alg == collective.AlgLinear && q.Coll == CollScatter:
		return x.scatterLinear(q.Root, q.M)
	case natural && q.Alg == collective.AlgLinear && q.Coll == CollGather:
		return x.gatherLinear(q.Root, q.M)
	}
	tree := q.tree()
	switch q.Coll {
	case CollScatter:
		return treeSeparated(tree, scatterBytes(tree, q.M), x.SendCost, x.WireCost, x.RecvCost)
	case CollGather:
		if natural && q.Alg == collective.AlgBinomial {
			// The reverse flow has the same critical path under the
			// separated model: the parent's receive processing
			// serializes, the child's send and the wire overlap.
			return treeSeparated(tree, scatterBytes(tree, q.M), x.RecvCost, x.WireCostRev, x.SendCost)
		}
		return x.gatherTree(tree, q.M)
	case CollBcast:
		return treeSeparated(tree, bcastBytes(q.M), x.SendCost, x.WireCost, x.RecvCost)
	default:
		// Reduction adds the combine work at each interior node, which
		// the model folds into the receive processing term (the
		// operands are combined as they are received).
		return treeSeparated(tree, bcastBytes(q.M), x.RecvCost, x.WireCostRev, x.SendCost)
	}
}

// scatterLinear predicts the flat-tree scatter with eq (4): the root's
// processing serializes, transmissions and remote processing overlap:
//
//	(n-1)(C_r + M·t_r) + max_{i≠r}( L_ri + M/β_ri + C_i + M·t_i )
func (x *LMOX) scatterLinear(root, m int) float64 {
	return float64(x.N()-1)*x.SendCost(root, m) + x.maxRemote(root, m)
}

// gatherLinear predicts the flat-tree gather with eq (5): below M1 the
// remote terms overlap (max); above M2 the serialized ingress makes
// them sum; between the thresholds the expected escalation cost is
// added to the parallel branch. Without empirical parameters the
// parallel branch is used throughout.
func (x *LMOX) gatherLinear(root, m int) float64 {
	low, _ := x.GatherLinearBand(root, x.N(), m)
	if x.Gather.Valid() && m > x.Gather.M1 && m < x.Gather.M2 {
		// Concurrent stalls overlap at the root, so the observable is
		// whether the operation escalated at all: the empirical Prob is
		// the per-operation escalation probability, and the expected
		// excursion is Prob times the mean stall magnitude.
		low += x.Gather.Prob(m) * x.Gather.MeanEscalation()
	}
	return low
}

// GatherLinearBand returns the [low, high] band the LMO model predicts
// for linear gather at size m: the low line (no escalation) and the
// high excursion (one full escalation per remote flow is the pessimum
// the model quotes; the paper reports excursions up to ~0.25 s).
func (x *LMOX) GatherLinearBand(root, n, m int) (low, high float64) {
	x.checkN(n)
	low = float64(n-1) * x.SendCost(root, m)
	switch {
	case !x.Gather.Valid() || m <= x.Gather.M1:
		low += x.maxRemote(root, m)
		return low, low
	case m >= x.Gather.M2:
		low += x.sumRemote(root, m)
		return low, low
	default:
		low += x.maxRemote(root, m)
		return low, low + x.Gather.MaxEscalation()
	}
}

// linearSegmented predicts the segmented flat collective that mpi's
// Rank.GatherShape and Rank.ScatterShape execute: ceil(m/seg) sub-ops
// run back to back, but they pipeline through the root's serialized
// per-message slots — segment k+1's processing starts while segment
// k's wire and remote-end tail are still in flight, so each segment
// contributes its serialized portion (root slots plus, for gather,
// the eq 5 empirical terms) and only the largest tail lands on the
// critical path once.
func (x *LMOX) linearSegmented(coll Collective, root, m, seg int) float64 {
	total, tailMax := 0.0, 0.0
	for rest := m; rest > 0; rest -= seg {
		b := min(rest, seg)
		var op float64
		if coll == CollGather {
			op = x.gatherLinear(root, b)
		} else {
			op = x.scatterLinear(root, b)
		}
		tail := x.maxRemote(root, b)
		total += op - tail
		tailMax = math.Max(tailMax, tail)
	}
	return total + tailMax
}

func (x *LMOX) maxRemote(root, m int) float64 {
	mx := 0.0
	for i := 0; i < x.N(); i++ {
		if i != root {
			mx = math.Max(mx, x.remoteTerm(root, i, m))
		}
	}
	return mx
}

func (x *LMOX) sumRemote(root, m int) float64 {
	s := 0.0
	for i := 0; i < x.N(); i++ {
		if i != root {
			s += x.remoteTerm(root, i, m)
		}
	}
	return s
}

// gatherTree predicts a gather over the tree: the up-tree critical path
// mirrors the down-tree one under the separated model, plus the
// empirical irregularity of eq (5). Every interior parent with two or
// more children is a many-to-one fan-in exactly like the flat gather
// root, so its contended child flows carry the empirical branches:
//
//   - In the (M1, M2) region a flow may escalate. The scan measures
//     Prob over the flat n-1-flow fan-in, so one flow's share is
//     Prob(b)/(n-1)·MeanEscalation — which makes the flat tree's n-1
//     edges sum back to the per-operation term gatherLinear charges.
//     With rare escalations the expected delays of distinct flows
//     add, so the charge lands on the parent's serialized slot.
//   - At and above M2 the parent's ingress serializes the transfer
//     itself (eq 5's sum branch): the flow's transmission time joins
//     the serialized slot instead of overlapping with its siblings.
//
// Prob is zero outside (M1, M2) and single-child parents see no
// contention (§III's escalations are a many-to-one phenomenon), so
// regular flows keep the purely structural cost.
func (x *LMOX) gatherTree(tree *collective.Tree, m int) float64 {
	bytes := scatterBytes(tree, m)
	g := x.Gather
	perFlow := 0.0
	if g.Valid() && x.N() > 2 {
		perFlow = g.MeanEscalation() / float64(x.N()-1)
	}
	var up func(r int, cs []int) float64
	up = func(r int, cs []int) float64 {
		if len(cs) == 0 {
			return 0
		}
		c := cs[0]
		b := bytes(c)
		slot := x.RecvCost(r, b)
		if g.Valid() && len(tree.Children[r]) > 1 {
			if b >= g.M2 {
				slot += float64(b) * x.invBeta(c, r)
			} else {
				slot += g.Prob(b) * perFlow
			}
		}
		rest := up(r, cs[1:])
		sub := x.WireCostRev(r, c, b) + x.SendCost(c, b) + up(c, tree.Children[c])
		return slot + math.Max(rest, sub)
	}
	return up(tree.Root, tree.Children[tree.Root])
}

// WireCostRev is the up-tree (child j to parent i) network part
// L_ji + M/β_ji.
func (x *LMOX) WireCostRev(i, j, m int) float64 { return x.L[j][i] + float64(m)*x.invBeta(j, i) }

// HockneyView collapses the extended model to heterogeneous Hockney
// parameters: α_ij = C_i + L_ij + C_j, β_ij = t_i + 1/β_ij + t_j (§III).
func (x *LMOX) HockneyView() *HetHockney {
	n := x.N()
	h := NewHetHockney(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			h.Alpha[i][j] = x.C[i] + x.L[i][j] + x.C[j]
			h.Beta[i][j] = x.T[i] + x.invBeta(i, j) + x.T[j]
		}
	}
	return h
}

func (x *LMOX) checkN(n int) {
	if n != x.N() {
		panic(fmt.Sprintf("models: LMO built for %d processors, asked for %d", x.N(), n))
	}
}

// String renders a compact summary.
func (x *LMOX) String() string {
	return fmt.Sprintf("LMO{n=%d, M1=%dB, M2=%dB}", x.N(), x.Gather.M1, x.Gather.M2)
}

// LMO is the original five-parameter model [8,9]: like LMOX but the
// fixed network delay is folded into the processor constants —
// T(i→j, M) = C_i + C_j + M(t_i + 1/β_ij + t_j). It is kept as the
// ablation baseline showing what the paper's extension adds.
type LMO struct {
	inner LMOX
}

// NewLMO allocates an n-processor original LMO model.
func NewLMO(n int) *LMO {
	return &LMO{inner: *NewLMOX(n)}
}

// N returns the number of processors.
func (l *LMO) N() int { return l.inner.N() }

// Name implements CollectivePredictor.
func (l *LMO) Name() string { return "LMO-orig" }

// C exposes the fixed processing delays for estimation code.
func (l *LMO) C() []float64 { return l.inner.C }

// T exposes the per-byte processing delays.
func (l *LMO) T() []float64 { return l.inner.T }

// Beta exposes the transmission rates.
func (l *LMO) Beta() [][]float64 { return l.inner.Beta }

// P2P implements CollectivePredictor (L is identically zero).
func (l *LMO) P2P(src, dst, m int) float64 { return l.inner.P2P(src, dst, m) }
