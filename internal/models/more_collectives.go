package models

import "math"

// Predictions for the remaining collectives of the mpi layer, derived
// with the LMO method — combinations of maxima (parallel parts) and
// sums (serialized parts) of the separated point-to-point parameters.

// AllgatherRing predicts the ring allgather: n-1 synchronized rounds,
// each gated by the slowest hop of the ring (a rank cannot forward a
// block it has not yet received).
func (x *LMOX) AllgatherRing(n, m int) float64 {
	x.checkN(n)
	worst := 0.0
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		hop := x.SendCost(i, m) + x.WireCost(i, j, m) + x.RecvCost(j, m)
		worst = math.Max(worst, hop)
	}
	return float64(n-1) * worst
}

// AlltoallLinear predicts the linear all-to-all: every rank serializes
// n-1 sends and n-1 receives on its CPU, the slowest processor gating
// the operation, plus one wire on the critical path. Above the
// empirical M2 threshold every destination's ingress serializes its
// n-1 incoming transfers (the same mechanism as eq 5's sum branch), so
// the wire chain competes with the CPU chain for the critical path.
func (x *LMOX) AlltoallLinear(n, m int) float64 {
	x.checkN(n)
	cpu := 0.0
	for i := 0; i < n; i++ {
		cpu = math.Max(cpu, x.SendCost(i, m)+x.RecvCost(i, m))
	}
	var maxWire, maxTransfer float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				maxWire = math.Max(maxWire, x.WireCost(i, j, m))
				maxTransfer = math.Max(maxTransfer, x.WireCost(i, j, m)-x.L[i][j])
			}
		}
	}
	if x.Gather.Valid() && m > x.Gather.M1 && m < x.Gather.M2 {
		// Medium band: with n fan-ins of n-1 flows each, some
		// destination escalates almost surely; the expected excursion
		// compounds the per-fan-in probability the gather scan measured.
		pAny := 1 - math.Pow(1-x.Gather.Prob(m), float64(n))
		return float64(n-1)*cpu + maxWire + pAny*x.Gather.MeanEscalation()
	}
	if x.Gather.Valid() && m >= x.Gather.M2 {
		send := 0.0
		for i := 0; i < n; i++ {
			send = math.Max(send, x.SendCost(i, m))
		}
		recvChain := cpu - send // ≈ slowest receive CPU chain element
		chain := math.Max(float64(n-1)*recvChain, float64(n-1)*maxTransfer)
		return float64(n-1)*send + chain + maxWire - maxTransfer
	}
	return float64(n-1)*cpu + maxWire
}
