package estimate

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/mpi"
)

// LMOOriginal estimates the original five-parameter LMO model [8,9]:
// T(i→j, M) = C_i + C_j + M(t_i + 1/β_ij + t_j), with no separate
// network latency. Its constants come from round-trip triangles alone —
//
//	C_i = (T_ij(0)/2 + T_ik(0)/2 − T_jk(0)/2) / 2
//
// which inevitably folds half the network's fixed latency into each
// processor constant (on ground truth C_i + L + C_j per half
// round-trip, the triangle solution yields C_i + L/2). This is
// precisely the conflation the paper's extension removes; the
// estimator exists as the ablation baseline quantifying what the
// extension buys. The variable parameters use the same one-to-two
// experiments as the extended model.
func LMOOriginal(cfg mpi.Config, opt Options) (*models.LMO, Report, error) {
	opt = opt.withDefaults()
	n := cfg.Cluster.N()
	if n < 3 {
		return nil, Report{}, fmt.Errorf("estimate: LMO estimation needs at least 3 processors, have %d", n)
	}
	rep := Report{}

	rt0 := make(map[Pair]float64)
	rtm := make(map[Pair]float64)
	ottm := make(map[[3]int]float64)

	var pairRounds [][]Pair
	if opt.Parallel {
		pairRounds = PairRounds(n)
	} else {
		for _, p := range AllPairs(n) {
			pairRounds = append(pairRounds, []Pair{p})
		}
	}
	var tripRounds [][]Triplet
	if opt.Parallel {
		tripRounds = TripletRounds(n)
	} else {
		for _, t := range AllTriplets(n) {
			tripRounds = append(tripRounds, []Triplet{t})
		}
	}

	var plan []round
	for _, pairs := range pairRounds {
		exps0 := make([]Exp, len(pairs))
		expsM := make([]Exp, len(pairs))
		for x, p := range pairs {
			exps0[x] = roundtripExp(p.I, p.J, 0, 0, x)
			expsM[x] = roundtripExp(p.I, p.J, opt.MsgSize, opt.MsgSize, x)
		}
		plan = append(plan, round{exps0, func(s0 []RoundSummary) {
			for x, p := range pairs {
				rt0[pairKey(p.I, p.J)] = s0[x].Mean
			}
		}}, round{expsM, func(sm []RoundSummary) {
			for x, p := range pairs {
				rtm[pairKey(p.I, p.J)] = sm[x].Mean
			}
		}})
	}
	for _, trips := range tripRounds {
		for rot := 0; rot < 3; rot++ {
			expsM := make([]Exp, len(trips))
			keys := make([][3]int, len(trips))
			for x, tr := range trips {
				var a, b, c int
				switch rot {
				case 0:
					a, b, c = tr.I, tr.J, tr.K
				case 1:
					a, b, c = tr.J, tr.I, tr.K
				default:
					a, b, c = tr.K, tr.I, tr.J
				}
				lo, hi := minmax2(b, c)
				keys[x] = [3]int{a, lo, hi}
				expsM[x] = oneToTwoExp(a, b, c, opt.MsgSize, 0, x)
			}
			plan = append(plan, round{expsM, func(sm []RoundSummary) {
				for x, key := range keys {
					ottm[key] = sm[x].Mean
				}
			}})
		}
	}

	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		runRounds(r, opt.Mpib, plan, &rep)
	})
	if err != nil {
		return nil, rep, err
	}
	rep.Cost = res.Duration

	model := models.NewLMO(n)
	m := float64(opt.MsgSize)
	sumC := make([]float64, n)
	sumT := make([]float64, n)
	cntCT := make([]int, n)
	sumInvB := make(map[Pair]float64)
	cntPair := make(map[Pair]int)

	for _, tr := range AllTriplets(n) {
		i, j, k := tr.I, tr.J, tr.K
		half := func(a, b int) float64 { return rt0[pairKey(a, b)] / 2 }
		c := map[int]float64{
			i: (half(i, j) + half(i, k) - half(j, k)) / 2,
			j: (half(i, j) + half(j, k) - half(i, k)) / 2,
			k: (half(i, k) + half(j, k) - half(i, j)) / 2,
		}
		for _, x := range []int{i, j, k} {
			if c[x] < 0 {
				c[x] = 0
			}
		}
		// Variable parts, designated-branch forms as in SolveTriplet.
		tt := TripletTimes{I: i, J: j, K: k}
		tv := map[int]float64{}
		for _, x := range []int{i, j, k} {
			d := tt.Designated(x)
			lo, hi := minmax2(otherTwo(tr, x))
			t := (ottm[[3]int{x, lo, hi}] - (rt0[pairKey(x, d)]+rtm[pairKey(x, d)])/2 - 2*c[x]) / m
			if t < 0 {
				t = 0
			}
			tv[x] = t
		}
		for _, x := range []int{i, j, k} {
			sumC[x] += c[x]
			sumT[x] += tv[x]
			cntCT[x]++
		}
		for _, p := range []Pair{pairKey(i, j), pairKey(j, k), pairKey(i, k)} {
			ib := (rtm[p]/2-c[p.I]-c[p.J])/m - tv[p.I] - tv[p.J]
			if ib > 0 {
				sumInvB[p] += ib
				cntPair[p]++
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
	return model, rep, nil
}
