package estimate

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// HetHockney estimates the heterogeneous Hockney model by the paper's
// series method: for every pair (i,j), round-trips at each of
// hockneySizes, with a least-squares line fitted through
// (M, T/2) — the intercept is α_ij, the slope β_ij. With opt.Parallel
// the C(n,2) pairs run in the round-robin tournament rounds of
// PairRounds, exploiting the switch's contention-free forwarding;
// serially otherwise. The returned report's Cost is the total virtual
// time of the estimation — the quantity the paper compares (serial
// 16 s vs parallel 5 s).
func HetHockney(cfg mpi.Config, opt Options) (*models.HetHockney, Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, Report{}, err
	}
	n := cfg.Cluster.N()
	h := models.NewHetHockney(n)
	rep := Report{}

	type obs struct{ xs, ys []float64 }
	points := map[Pair]*obs{}
	for _, p := range AllPairs(n) {
		points[p] = &obs{}
	}

	plan := roundTripPlan(pairSchedule(n, opt.Parallel), hockneySizes[:], func(p Pair, k int, mean float64) {
		o := points[p]
		o.xs = append(o.xs, float64(hockneySizes[k]))
		o.ys = append(o.ys, mean/2)
	})
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
// series method: round-trips over a small geometric series of message
// sizes between a sample of pairs, one experiment at a time, with
// (M, T/2) fitted by least squares — α is the intercept, β the slope.
func HomHockney(cfg mpi.Config, opt Options) (*models.Hockney, Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, Report{}, err
	}
	sizes := []int{0, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	// Sample pairs: distinct hardware without the full O(n²) sweep.
	pairs := samplePairs(cfg.Cluster.N())

	rep := Report{}
	var xs, ys []float64
	plan := roundTripPlan(serialized(pairs), sizes, func(_ Pair, k int, mean float64) {
		xs = append(xs, float64(sizes[k]))
		ys = append(ys, mean/2)
	})
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
