package estimate

import (
	"math"
	"slices"
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
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, nil, Report{}, err
	}
	n := cfg.Cluster.N()
	smallW := 1 << 10
	bigM := opt.MsgSize
	cnt := saturationCount
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
//
// The job runs a first plan, the empty round trip and six sizes, then
// up to four refinement passes, each a plan of its own: the first rank
// back from the previous plan's closing HardSync builds the pass from
// the points measured so far, and an empty pass ends the job.
func PLogP(cfg mpi.Config, opt Options) (*models.PLogP, Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, Report{}, err
	}
	n := cfg.Cluster.N()
	const i, j = 0, 1
	const maxPoints = 24
	const tol = 0.08
	rep := Report{}

	var rtt0 float64
	var pts []plogpPoint // the sizes measured or planned
	bySize := func(a, b plogpPoint) int { return a.m - b.m }
	tag := 0
	// measure appends to plan the three rounds that measure size m:
	// gap, send overhead and receive overhead, between i and j.
	measure := func(plan []round, m int) []round {
		k := len(pts)
		pts = append(pts, plogpPoint{m: m})
		plan = append(plan,
			round{[]Exp{saturationExp(i, j, m, saturationCount, tag)}, func(s []RoundSummary) {
				pts[k].g = s[0].Mean / float64(saturationCount)
			}},
			round{[]Exp{sendOverheadExp(i, j, m, tag+1)}, func(s []RoundSummary) { pts[k].os = s[0].Mean }},
			round{[]Exp{recvOverheadExp(i, j, m, logpWait, tag+2)}, func(s []RoundSummary) { pts[k].or = s[0].Mean }},
		)
		tag += 3
		return plan
	}
	// refine plans a pass: the midpoint of every interval where g is not
	// locally linear, judged from the points measured before the pass.
	refine := func() []round {
		slices.SortFunc(pts, bySize)
		grid := pts // measure appends the pass's midpoints past its end
		var plan []round
		for k := 2; k < len(grid); k++ {
			p0, p1, p2 := grid[k-2], grid[k-1], grid[k]
			extrap := p1.g + (p1.g-p0.g)*float64(p2.m-p1.m)/float64(p1.m-p0.m)
			if p2.g > 0 && math.Abs(p2.g-extrap) > tol*p2.g && p2.m-p1.m > 1<<10 && len(pts) < maxPoints {
				plan = measure(plan, (p1.m+p2.m)/2)
			}
		}
		return plan
	}

	first := []round{{[]Exp{roundtripExp(i, j, 0, 0, tag)}, func(s []RoundSummary) { rtt0 = s[0].Mean }}}
	tag++
	for _, m := range []int{0, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10} {
		first = measure(first, m)
	}
	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		runRounds(r, opt.Mpib, first, &rep)
		for pass := 0; pass < 4; pass++ {
			cell := r.SharedCell()
			if cell.V == nil {
				cell.V = refine()
			}
			plan := cell.V.([]round)
			if len(plan) == 0 {
				return
			}
			runRounds(r, opt.Mpib, plan, &rep)
		}
	})
	if err != nil {
		return nil, rep, err
	}
	rep.Cost = res.Duration

	slices.SortFunc(pts, bySize)
	gx := make([]float64, len(pts))
	gy := make([]float64, len(pts))
	osy := make([]float64, len(pts))
	ory := make([]float64, len(pts))
	for k, p := range pts {
		gx[k] = float64(p.m)
		gy[k] = p.g
		osy[k] = p.os
		ory[k] = p.or
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

// plogpPoint is one PLogP sample: gap and overheads at size m.
type plogpPoint struct {
	m         int
	g, os, or float64
}
