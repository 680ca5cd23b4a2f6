package models

import (
	"fmt"
	"math"
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

// flat predicts the flat-tree scatter and gather with the serial
// reading, the choice the paper's Table II uses for Hockney-family
// models; by the design of the model gather is scatter (§II).
func (h *Hockney) flat(_, n, m int) float64 { return h.ScatterLinearSerial(n, m) }

// binomial predicts the binomial scatter and gather:
// (log₂n)α + (n-1)βM (§II, eq 3).
func (h *Hockney) binomial(n, m int) float64 {
	return log2Ceil(n)*h.Alpha + float64(n-1)*h.Beta*float64(m)
}

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
	return &HetHockney{Alpha: squareMatrix(n), Beta: squareMatrix(n)}
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

// flat predicts the flat-tree scatter and gather with the serial
// reading (Table II, §II).
func (h *HetHockney) flat(root, _, m int) float64 { return h.ScatterLinearSerial(root, m) }

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
