package models

import (
	"fmt"
	"math"

	"repro/internal/collective"
)

// Hockney is the homogeneous Hockney model: point-to-point time
// α + β·M, where α combines all constant contributions and β all
// variable ones (seconds per byte). One pair of values stands for
// every processor pair.
type Hockney struct {
	Alpha float64 // latency, seconds
	Beta  float64 // inverse bandwidth, seconds per byte
}

// Name implements CollectivePredictor.
func (h *Hockney) Name() string { return "Hockney" }

// P2P implements CollectivePredictor: α + β·m for every pair.
func (h *Hockney) P2P(_, _, m int) float64 { return h.Alpha + h.Beta*float64(m) }

// ScatterLinearSerial is the fully-serialized reading of linear
// scatter: (n-1)(α+βM) — the paper's pessimistic prediction in Fig 1.
func (h *Hockney) ScatterLinearSerial(n, m int) float64 {
	return float64(n-1) * h.P2P(0, 1, m)
}

// ScatterLinearParallel is the fully-parallel reading: α+βM — the
// paper's optimistic prediction in Fig 1.
func (h *Hockney) ScatterLinearParallel(_, m int) float64 { return h.P2P(0, 1, m) }

// ScatterLinear predicts the flat-tree scatter with the serial
// reading, the choice the paper's Table II uses for Hockney-family models.
func (h *Hockney) ScatterLinear(_, n, m int) float64 { return h.ScatterLinearSerial(n, m) }

// GatherLinear predicts the flat-tree gather. By the design of the Hockney
// model the same formula applies to gather (§II).
func (h *Hockney) GatherLinear(_, n, m int) float64 { return h.ScatterLinearSerial(n, m) }

// ScatterBinomial predicts the binomial scatter: (log₂n)α + (n-1)βM (§II, eq 3).
func (h *Hockney) ScatterBinomial(_, n, m int) float64 {
	return log2Ceil(n)*h.Alpha + float64(n-1)*h.Beta*float64(m)
}

// GatherBinomial predicts the binomial gather; identical to scatter
// by design.
func (h *Hockney) GatherBinomial(root, n, m int) float64 { return h.ScatterBinomial(root, n, m) }

// String renders the parameters.
func (h *Hockney) String() string {
	return fmt.Sprintf("Hockney{α=%.3gs, β=%.3gs/B}", h.Alpha, h.Beta)
}

// HetHockney is the heterogeneous extension of the Hockney model:
// per-pair α_ij and β_ij that still conflate processor and network
// contributions.
type HetHockney struct {
	Alpha [][]float64 // seconds
	Beta  [][]float64 // seconds per byte
}

// NewHetHockney allocates an n×n heterogeneous Hockney model.
func NewHetHockney(n int) *HetHockney {
	h := &HetHockney{Alpha: make([][]float64, n), Beta: make([][]float64, n)}
	for i := range h.Alpha {
		h.Alpha[i] = make([]float64, n)
		h.Beta[i] = make([]float64, n)
	}
	return h
}

// N returns the number of processors the model covers.
func (h *HetHockney) N() int { return len(h.Alpha) }

// Name implements CollectivePredictor.
func (h *HetHockney) Name() string { return "het-Hockney" }

// P2P implements CollectivePredictor: α_ij + β_ij·m.
func (h *HetHockney) P2P(src, dst, m int) float64 {
	return h.Alpha[src][dst] + h.Beta[src][dst]*float64(m)
}

// ScatterLinearSerial sums the point-to-point times over all
// destinations: Σ_{i≠r}(α_ri + β_ri·M).
func (h *HetHockney) ScatterLinearSerial(root, m int) float64 {
	s := 0.0
	for i := 0; i < h.N(); i++ {
		if i != root {
			s += h.P2P(root, i, m)
		}
	}
	return s
}

// ScatterLinearParallel takes the maximum point-to-point time:
// max_{i≠r}(α_ri + β_ri·M).
func (h *HetHockney) ScatterLinearParallel(root, m int) float64 {
	mx := 0.0
	for i := 0; i < h.N(); i++ {
		if i != root {
			mx = math.Max(mx, h.P2P(root, i, m))
		}
	}
	return mx
}

// ScatterLinear predicts the flat-tree scatter with the serial reading
// (Table II).
func (h *HetHockney) ScatterLinear(root, n, m int) float64 {
	h.checkN(n)
	return h.ScatterLinearSerial(root, m)
}

// GatherLinear predicts the flat-tree gather; same formula as scatter
// (§II).
func (h *HetHockney) GatherLinear(root, n, m int) float64 {
	h.checkN(n)
	return h.ScatterLinearSerial(root, m)
}

// ScatterBinomial predicts the binomial scatter with the recursive
// formula (1):
// sub-trees of equal order proceed in parallel, the largest block is
// sent first.
func (h *HetHockney) ScatterBinomial(root, n, m int) float64 {
	h.checkN(n)
	return h.ScatterTree(collective.Binomial(n, root), m)
}

// GatherBinomial predicts the binomial gather; the Hockney model cannot
// distinguish the direction, so the same recursion applies.
func (h *HetHockney) GatherBinomial(root, n, m int) float64 {
	return h.ScatterBinomial(root, n, m)
}

// Averaged collapses the heterogeneous model to a homogeneous Hockney
// model by averaging all pairs — the paper's "treat the heterogeneous
// cluster as homogeneous" fallback.
func (h *HetHockney) Averaged() *Hockney {
	n := h.N()
	var a, b float64
	cnt := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a += h.Alpha[i][j]
			b += h.Beta[i][j]
			cnt++
		}
	}
	if cnt == 0 {
		return &Hockney{}
	}
	return &Hockney{Alpha: a / float64(cnt), Beta: b / float64(cnt)}
}

func (h *HetHockney) checkN(n int) {
	if n != h.N() {
		panic(fmt.Sprintf("models: het-Hockney built for %d processors, asked for %d", h.N(), n))
	}
}
