package estimate

import (
	"time"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// logpWait is the "sufficiently long" pause of the delayed-receive
// experiment: ample for any echo on the simulated clusters.
const logpWait = 50 * time.Millisecond

// LogPLogGP estimates the LogP and LogGP models from the paper's §II
// experiment set between one processor pair (the models are
// homogeneous): send/receive overheads from overhead round-trips,
// latency from the round-trip time, the per-message gap g from a
// small-message saturation, and LogGP's gap per byte G from the slope
// between small- and large-message saturations.
func LogPLogGP(cfg mpi.Config, opt Options) (*models.LogP, *models.LogGP, Report, error) {
	opt = opt.withDefaults()
	n := cfg.Cluster.N()
	smallW := 1 << 10
	bigM := opt.MsgSize
	cnt := opt.SaturationCount
	rep := Report{}

	// The homogeneous LogP-family parameters average over a sample of
	// pairs, the paper's treatment of heterogeneous clusters under
	// homogeneous models ("averaging values obtained for every pair").
	pairs := samplePairs(n)

	sums := make([]float64, 5) // os0, or0, rtt0, satW, satM
	var plan []round
	tag := 0
	for _, pr := range pairs {
		i, j := pr.I, pr.J
		exps := []Exp{
			sendOverheadExp(i, j, 0, tag),
			recvOverheadExp(i, j, 0, logpWait, tag+1),
			roundtripExp(i, j, 0, 0, tag+2),
			saturationExp(i, j, smallW, cnt, tag+3),
			saturationExp(i, j, bigM, cnt, tag+4),
		}
		tag += 5
		for x, e := range exps {
			plan = append(plan, round{[]Exp{e}, func(s []RoundSummary) { sums[x] += s[0].Mean }})
		}
	}
	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		runRounds(r, opt.Mpib, plan, &rep)
	})
	if err != nil {
		return nil, nil, rep, err
	}
	rep.Cost = res.Duration

	np := float64(len(pairs))
	os0, or0, rtt0 := sums[0]/np, sums[1]/np, sums[2]/np
	satW, satM := sums[3]/np, sums[4]/np

	o := (os0 + or0) / 2
	l := rtt0/2 - 2*o
	if l < 0 {
		l = 0
	}
	g := satW / float64(cnt)
	gBig := satM / float64(cnt)
	bigG := (gBig - g) / float64(bigM-smallW)
	if bigG < 0 {
		bigG = 0
	}
	logp := &models.LogP{L: l, O: o, G: g, W: smallW, P: n}
	loggp := &models.LogGP{L: l, O: o, SmG: g, BigG: bigG, P: n}
	return logp, loggp, rep, nil
}

// samplePairs picks a small, spread-out pair sample for homogeneous
// model estimation.
func samplePairs(n int) []Pair {
	pairs := []Pair{{0, 1 % n}}
	if n >= 4 {
		pairs = append(pairs, Pair{n / 2, n/2 + 1}, Pair{n - 2, n - 1})
	}
	// Deduplicate (small n may collide).
	seen := map[Pair]bool{}
	var out []Pair
	for _, p := range pairs {
		k := pairKey(p.I, p.J)
		if p.I != p.J && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// PLogP estimates the parameterized LogP model: for an adaptively
// refined set of message sizes it measures the size-dependent gap g(M)
// (saturation), send overhead o_s(M) and receive overhead o_r(M), and
// derives L from the empty round-trip, L = RTT(0)/2 − g(0). Sizes are
// refined by the paper's rule: when g at a size disagrees with the
// linear extrapolation from the previous two sizes by more than tol,
// the midpoint is measured too.
func PLogP(cfg mpi.Config, opt Options) (*models.PLogP, Report, error) {
	opt = opt.withDefaults()
	n := cfg.Cluster.N()
	const i, j = 0, 1
	cnt := opt.SaturationCount
	rep := Report{}

	sizes := []int{0, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10}
	const maxPoints = 24
	const tol = 0.08

	measured := map[int]plogpPoint{}
	var rtt0 float64

	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		tag := 0
		measureSize := func(m int) plogpPoint {
			satS := measureRound(r, opt.Mpib, []Exp{saturationExp(i, j, m, cnt, tag)})
			osS := measureRound(r, opt.Mpib, []Exp{sendOverheadExp(i, j, m, tag+1)})
			orS := measureRound(r, opt.Mpib, []Exp{recvOverheadExp(i, j, m, logpWait, tag+2)})
			tag += 3
			if r.Rank() == 0 {
				rep.Experiments += 3
				rep.Repetitions += satS[0].N + osS[0].N + orS[0].N
			}
			return plogpPoint{g: satS[0].Mean / float64(cnt), os: osS[0].Mean, or: orS[0].Mean}
		}

		s := measureRound(r, opt.Mpib, []Exp{roundtripExp(i, j, 0, 0, tag)})
		tag++
		rtt0 = s[0].Mean
		if r.Rank() == 0 {
			rep.Experiments++
			rep.Repetitions += s[0].N
		}

		for _, m := range sizes {
			measured[m] = measureSize(m)
		}
		// Adaptive refinement: bisect where g is not locally linear.
		for pass := 0; pass < 4 && len(measured) < maxPoints; pass++ {
			grid := sortedKeys(measured)
			inserted := false
			for k := 2; k < len(grid); k++ {
				m0, m1, m2 := grid[k-2], grid[k-1], grid[k]
				g0, g1, g2 := measured[m0].g, measured[m1].g, measured[m2].g
				extrap := g1 + (g1-g0)*float64(m2-m1)/float64(m1-m0)
				if g2 <= 0 {
					continue
				}
				if absf(g2-extrap) > tol*g2 && m2-m1 > 1<<10 {
					mid := (m1 + m2) / 2
					if _, ok := measured[mid]; !ok && len(measured) < maxPoints {
						measured[mid] = measureSize(mid)
						inserted = true
					}
				}
			}
			if !inserted {
				break
			}
		}
	})
	if err != nil {
		return nil, rep, err
	}
	rep.Cost = res.Duration

	grid := sortedKeys(measured)
	gx := make([]float64, len(grid))
	gy := make([]float64, len(grid))
	osy := make([]float64, len(grid))
	ory := make([]float64, len(grid))
	for k, m := range grid {
		gx[k] = float64(m)
		gy[k] = measured[m].g
		osy[k] = measured[m].os
		ory[k] = measured[m].or
	}
	g, err := stats.NewPWLinear(gx, gy)
	if err != nil {
		return nil, rep, err
	}
	osf, err := stats.NewPWLinear(gx, osy)
	if err != nil {
		return nil, rep, err
	}
	orf, err := stats.NewPWLinear(gx, ory)
	if err != nil {
		return nil, rep, err
	}
	l := rtt0/2 - g.Eval(0)
	if l < 0 {
		l = 0
	}
	return &models.PLogP{L: l, OS: osf, OR: orf, G: g, P: n}, rep, nil
}

// plogpPoint is one measured PLogP sample: gap and overheads at a size.
type plogpPoint struct{ g, os, or float64 }

func sortedKeys(m map[int]plogpPoint) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && out[b] < out[b-1]; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
