package estimate

import (
	"errors"

	"repro/internal/models"
)

// LMOOriginal solves the original five-parameter LMO model [8,9]:
// T(i→j, M) = C_i + C_j + M(t_i + 1/β_ij + t_j), with no separate
// network latency, from the triplet records of LMOX's report x; it
// runs no experiment. Its constants come from round-trip triangles
// alone —
//
//	C_i = (T_ij(0)/2 + T_ik(0)/2 − T_jk(0)/2) / 2
//
// which inevitably folds half the network's fixed latency into each
// processor constant (on ground truth C_i + L + C_j per half
// round-trip, the triangle solution yields C_i + L/2). This is
// precisely the conflation the paper's extension removes; the
// estimator exists as the ablation baseline quantifying what the
// extension buys. The variable parameters take eq (11) over the M-byte
// one-to-two experiments. Under a positive TripletCoverage the model
// averages the triplets LMOX sampled.
func LMOOriginal(x Report) (*models.LMO, error) {
	tts := x.triplets
	if len(tts) == 0 {
		return nil, errors.New("estimate: the five-parameter LMO needs an LMOX report's triplet records")
	}
	n := 0
	for _, tt := range tts {
		n = max(n, tt.Members[2]+1)
	}
	model := models.NewLMO(n)
	m := float64(tts[0].M)
	sumC := make([]float64, n)
	sumT := make([]float64, n)
	cntCT := make([]int, n)
	sumInvB := make(map[Pair]float64)
	cntPair := make(map[Pair]int)

	for _, tt := range tts {
		// The triangle constants, from the half round trips by pair slot.
		h := [3]float64{tt.RT0[0] / 2, tt.RT0[1] / 2, tt.RT0[2] / 2}
		c := [3]float64{(h[0] + h[1] - h[2]) / 2, (h[0] + h[2] - h[1]) / 2, (h[1] + h[2] - h[0]) / 2}
		for x := range c {
			if c[x] < 0 {
				c[x] = 0
			}
		}
		// Variable parts: eq (11) with the triangle constants.
		var t [3]float64
		for _, r := range rotations {
			t[r.init] = processorT(tt.OneToTwoM[r.init], tt.RT0[r.rt], tt.RTM[r.rt], c[r.init], m)
		}
		for x, proc := range tt.Members {
			sumC[proc] += c[x]
			sumT[proc] += t[x]
			cntCT[proc]++
		}
		for p, pr := range tripletPairs {
			a, b := pr[0], pr[1]
			if ib := linkInvB(tt.RTM[p], c[a], 0, c[b], t[a], t[b], m); ib > 0 {
				k := Pair{tt.Members[a], tt.Members[b]}
				sumInvB[k] += ib
				cntPair[k]++
			}
		}
	}

	for x := 0; x < n; x++ {
		if cntCT[x] > 0 {
			model.C()[x] = sumC[x] / float64(cntCT[x])
			model.T()[x] = sumT[x] / float64(cntCT[x])
		}
	}
	// AllPairs order rather than map order: each pair writes its own
	// Beta cells, but deterministic traversal keeps the loop auditable
	// without an order-insensitivity proof.
	for _, p := range AllPairs(n) {
		cnt, ok := cntPair[p]
		if !ok {
			continue
		}
		b := float64(cnt) / sumInvB[p]
		model.Beta()[p.I][p.J], model.Beta()[p.J][p.I] = b, b
	}
	return model, nil
}
