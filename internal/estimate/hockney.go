package estimate

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// HetHockney estimates the heterogeneous Hockney model by the paper's
// series method: for every pair (i,j), round-trips at each of
// opt.HockneySizes, with a least-squares line fitted through
// (M, T/2) — the intercept is α_ij, the slope β_ij. With opt.Parallel
// the C(n,2) pairs run in the round-robin tournament rounds of
// PairRounds, exploiting the switch's contention-free forwarding;
// serially otherwise. The returned report's Cost is the total virtual
// time of the estimation — the quantity the paper compares (serial
// 16 s vs parallel 5 s).
func HetHockney(cfg mpi.Config, opt Options) (*models.HetHockney, Report, error) {
	opt = opt.withDefaults()
	n := cfg.Cluster.N()
	h := models.NewHetHockney(n)
	rep := Report{}

	var rounds [][]Pair
	if opt.Parallel {
		rounds = PairRounds(n)
	} else {
		for _, p := range AllPairs(n) {
			rounds = append(rounds, []Pair{p})
		}
	}

	type obs struct{ xs, ys []float64 }
	points := map[Pair]*obs{}
	for _, p := range AllPairs(n) {
		points[p] = &obs{}
	}

	var plan []round
	for _, pairs := range rounds {
		for _, m := range opt.HockneySizes {
			exps := make([]Exp, len(pairs))
			for x, p := range pairs {
				exps[x] = roundtripExp(p.I, p.J, m, m, x)
			}
			plan = append(plan, round{exps, func(sums []RoundSummary) {
				for x, p := range pairs {
					o := points[pairKey(p.I, p.J)]
					o.xs = append(o.xs, float64(m))
					o.ys = append(o.ys, sums[x].Mean/2)
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

	// Iterate in AllPairs order, not map order: which pair's fit error
	// surfaces first must not depend on map iteration.
	for _, p := range AllPairs(n) {
		o, measured := points[p]
		if !measured {
			continue
		}
		fit, err := stats.FitLine(o.xs, o.ys)
		if err != nil {
			return nil, rep, fmt.Errorf("estimate: pair %v fit: %w", p, err)
		}
		alpha, beta := fit.Intercept, fit.Slope
		if alpha < 0 {
			alpha = 0
		}
		if beta < 0 {
			beta = 0
		}
		h.Alpha[p.I][p.J], h.Alpha[p.J][p.I] = alpha, alpha
		h.Beta[p.I][p.J], h.Beta[p.J][p.I] = beta, beta
	}
	return h, rep, nil
}

// HomHockney estimates the homogeneous Hockney model by the paper's
// series method: round-trips over a range of message sizes between a
// sample of pairs, with (M, T/2) fitted by least squares — α is the
// intercept, β the slope. sizes defaults to a small geometric series
// when nil.
func HomHockney(cfg mpi.Config, opt Options, sizes []int) (*models.Hockney, Report, error) {
	opt = opt.withDefaults()
	n := cfg.Cluster.N()
	if sizes == nil {
		sizes = []int{0, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	}
	// Sample pairs: distinct hardware without the full O(n²) sweep.
	pairs := samplePairs(n)

	rep := Report{}
	var xs, ys []float64
	var plan []round
	for pi, p := range pairs {
		for _, m := range sizes {
			plan = append(plan, round{[]Exp{roundtripExp(p.I, p.J, m, m, pi)}, func(s []RoundSummary) {
				xs = append(xs, float64(m))
				ys = append(ys, s[0].Mean/2)
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
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return nil, rep, err
	}
	alpha := fit.Intercept
	if alpha < 0 {
		alpha = 0
	}
	beta := fit.Slope
	if beta < 0 {
		beta = 0
	}
	return &models.Hockney{Alpha: alpha, Beta: beta}, rep, nil
}
