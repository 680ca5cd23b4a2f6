package estimate

import (
	"fmt"
	"math"

	"repro/internal/linsolve"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// TripletTimes holds the measured execution times of the experiments
// involving one triplet {i,j,k}: the three round-trips and the three
// one-to-two communications, each with empty and with MsgSize-byte
// messages. Times are in seconds, measured on the initiator (the
// paper's sender-side timing).
type TripletTimes struct {
	I, J, K int
	M       int // the non-empty message size used

	RT0 map[Pair]float64 // T_xy(0), round-trip with empty messages
	RTM map[Pair]float64 // T_xy(M), round-trip with M-byte messages
	// OneToTwo0[x] and OneToTwoM[x] are T_x{y,z}(·) with initiator x.
	OneToTwo0 map[int]float64
	OneToTwoM map[int]float64
}

// pairKey normalizes an unordered pair.
func pairKey(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// Designated returns the designated branch of the one-to-two
// experiment with initiator x over triple {I,J,K}: the higher-indexed
// of the two non-initiators. oneToTwoExp sends to it last and collects
// its reply first, so the experiment's critical path deterministically
// runs through it; the closed forms below use it in place of the
// paper's max over branches (which the max reduces to under this
// pinned design).
func (tt TripletTimes) Designated(x int) int {
	a, b := otherTwo(Triplet{tt.I, tt.J, tt.K}, x)
	if a > b {
		return a
	}
	return b
}

// TripletSolution is the closed-form solution of eqs (8) and (11) for
// one triplet.
type TripletSolution struct {
	C    map[int]float64  // fixed processing delays
	T    map[int]float64  // per-byte processing delays
	L    map[Pair]float64 // fixed link latencies
	Beta map[Pair]float64 // link transmission rates (bytes/second)
}

// SolveTriplet applies the paper's closed forms: eq (8) for the
// constant parameters and eq (11) for the variable ones, with the max
// branch replaced by the experiment's designated branch.
func SolveTriplet(tt TripletTimes) TripletSolution {
	i, j, k := tt.I, tt.J, tt.K
	m := float64(tt.M)
	rt0 := func(a, b int) float64 { return tt.RT0[pairKey(a, b)] }
	rtm := func(a, b int) float64 { return tt.RTM[pairKey(a, b)] }

	sol := TripletSolution{
		C: map[int]float64{}, T: map[int]float64{},
		L: map[Pair]float64{}, Beta: map[Pair]float64{},
	}

	// Eq (8): C_x = (T_x{y,z}(0) − T_xd(0)) / 2 with d the designated
	// branch (the paper's max, pinned by the experiment design).
	for _, x := range []int{i, j, k} {
		sol.C[x] = (tt.OneToTwo0[x] - rt0(x, tt.Designated(x))) / 2
	}
	for _, c := range []int{i, j, k} {
		if sol.C[c] < 0 {
			sol.C[c] = 0
		}
	}
	// Eq (8): L_xy = T_xy(0)/2 − C_x − C_y.
	sol.L[pairKey(i, j)] = rt0(i, j)/2 - sol.C[i] - sol.C[j]
	sol.L[pairKey(j, k)] = rt0(j, k)/2 - sol.C[j] - sol.C[k]
	sol.L[pairKey(i, k)] = rt0(i, k)/2 - sol.C[i] - sol.C[k]
	// In-place clamp: each entry is adjusted independently of every
	// other, so iteration order cannot leak into the solution.
	//lmovet:commutative
	for p, v := range sol.L {
		if v < 0 {
			sol.L[p] = 0
		}
	}

	// Eq (11): t_x = (T_x{y,z}(M) − (T_xd(0)+T_xd(M))/2 − 2C_x)/M with
	// d again the designated branch.
	for _, x := range []int{i, j, k} {
		d := tt.Designated(x)
		sol.T[x] = (tt.OneToTwoM[x] - (rt0(x, d)+rtm(x, d))/2 - 2*sol.C[x]) / m
	}
	for _, c := range []int{i, j, k} {
		if sol.T[c] < 0 {
			sol.T[c] = 0
		}
	}

	// Eq (11): 1/β_xy = (T_xy(M)/2 − C_x − L_xy − C_y)/M − t_x − t_y.
	invBeta := func(x, y int) float64 {
		return (rtm(x, y)/2-sol.C[x]-sol.L[pairKey(x, y)]-sol.C[y])/m - sol.T[x] - sol.T[y]
	}
	for _, p := range []Pair{pairKey(i, j), pairKey(j, k), pairKey(i, k)} {
		ib := invBeta(p.I, p.J)
		if ib > 0 {
			sol.Beta[p] = 1 / ib
		} else {
			sol.Beta[p] = math.Inf(1) // infinitely fast link (degenerate)
		}
	}
	return sol
}

// SolveTripletConstantsLinsolve solves the constant-parameter system
// (6) for one triplet with the generic Gaussian solver instead of the
// closed form, linearizing the max terms using the measured round-trip
// ordering. It exists to cross-check eq (8); both must agree.
func SolveTripletConstantsLinsolve(tt TripletTimes) (TripletSolution, error) {
	i, j, k := tt.I, tt.J, tt.K
	rt0 := func(a, b int) float64 { return tt.RT0[pairKey(a, b)] }

	// Unknowns: [C_i, C_j, C_k, L_ij, L_jk, L_ik].
	idxC := map[int]int{i: 0, j: 1, k: 2}
	idxL := map[Pair]int{pairKey(i, j): 3, pairKey(j, k): 4, pairKey(i, k): 5}

	var a [][]float64
	var b []float64
	addRT := func(x, y int) {
		row := make([]float64, 6)
		row[idxC[x]] = 2
		row[idxC[y]] = 2
		row[idxL[pairKey(x, y)]] = 2
		a = append(a, row)
		b = append(b, rt0(x, y))
	}
	addRT(i, j)
	addRT(j, k)
	addRT(i, k)
	// One-to-two rows: T_x{y,z}(0) = 4C_x + 2L_xw + 2C_w where w is the
	// experiment's designated branch (eq 6's max, pinned by design).
	addOTT := func(x, y, z int) {
		w := tt.Designated(x)
		row := make([]float64, 6)
		row[idxC[x]] = 4
		row[idxC[w]] += 2
		row[idxL[pairKey(x, w)]] = 2
		a = append(a, row)
		b = append(b, tt.OneToTwo0[x])
	}
	addOTT(i, j, k)
	addOTT(j, i, k)
	addOTT(k, i, j)

	x, err := linsolve.Solve(a, b)
	if err != nil {
		return TripletSolution{}, fmt.Errorf("estimate: triplet system: %w", err)
	}
	sol := TripletSolution{C: map[int]float64{}, L: map[Pair]float64{}}
	sol.C[i], sol.C[j], sol.C[k] = x[0], x[1], x[2]
	sol.L[pairKey(i, j)] = x[3]
	sol.L[pairKey(j, k)] = x[4]
	sol.L[pairKey(i, k)] = x[5]
	return sol, nil
}

// LMOX estimates the extended LMO model per §IV: C(n,2) round-trips and
// 3·C(n,3) one-to-two experiments, each with empty and with
// MsgSize-byte messages; per-triplet closed-form solutions; and
// redundancy averaging per eq (12) — C_x and t_x from every triplet
// containing x, L_xy and β_xy from every triplet containing the pair.
func LMOX(cfg mpi.Config, opt Options) (*models.LMOX, Report, error) {
	opt = opt.withDefaults()
	n := cfg.Cluster.N()
	if n < 3 {
		return nil, Report{}, fmt.Errorf("estimate: LMO estimation needs at least 3 processors, have %d", n)
	}
	rep := Report{}

	rt0 := make(map[Pair]float64)
	rtm := make(map[Pair]float64)
	ott0 := make(map[[3]int]float64) // key: [initiator, lo, hi]
	ottm := make(map[[3]int]float64)

	var pairRounds [][]Pair
	if opt.Parallel {
		pairRounds = PairRounds(n)
	} else {
		for _, p := range AllPairs(n) {
			pairRounds = append(pairRounds, []Pair{p})
		}
	}
	triplets := AllTriplets(n)
	if opt.TripletCoverage > 0 {
		triplets = SampleTriplets(n, opt.TripletCoverage)
	}
	var tripRounds [][]Triplet
	if opt.Parallel {
		tripRounds = packTriplets(n, triplets)
	} else {
		for _, t := range triplets {
			tripRounds = append(tripRounds, []Triplet{t})
		}
	}

	// suspect records the one-to-two measurements whose CI never met
	// the target (after retries): their triplet contributions are
	// excluded from the eq-(12) averaging below, which tolerates the
	// loss thanks to the redundancy. Keyed like ott0/ottm; the value is
	// the worst relative error observed.
	suspect := make(map[[3]int]float64)

	// countRound keeps the report's robustness accounting of a round.
	countRound := func(s []RoundSummary) {
		for x := range s {
			if !s[x].Converged {
				rep.NonConverged++
			}
		}
		if len(s) > 0 {
			rep.Retries += s[0].Retries
		}
	}

	// Phase 1: round-trips with empty and with M-byte messages.
	var pairPlan []round
	for _, pairs := range pairRounds {
		exps0 := make([]Exp, len(pairs))
		expsM := make([]Exp, len(pairs))
		for x, p := range pairs {
			exps0[x] = roundtripExp(p.I, p.J, 0, 0, x)
			expsM[x] = roundtripExp(p.I, p.J, opt.MsgSize, opt.MsgSize, x)
		}
		pairPlan = append(pairPlan, round{exps0, func(s0 []RoundSummary) {
			for x, p := range pairs {
				rt0[pairKey(p.I, p.J)] = s0[x].Mean
			}
			countRound(s0)
		}}, round{expsM, func(sm []RoundSummary) {
			for x, p := range pairs {
				rtm[pairKey(p.I, p.J)] = sm[x].Mean
			}
			countRound(sm)
		}})
	}
	// Phase 2: one-to-two experiments; each unordered round runs
	// three initiator rotations, with empty and M-byte messages.
	// Replies are always empty: the paper's guard against the gather
	// escalations contaminating the estimation.
	var tripPlan []round
	for _, trips := range tripRounds {
		for rot := 0; rot < 3; rot++ {
			exps0 := make([]Exp, len(trips))
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
				exps0[x] = oneToTwoExp(a, b, c, 0, 0, x)
				expsM[x] = oneToTwoExp(a, b, c, opt.MsgSize, 0, x)
			}
			var s0 []RoundSummary
			tripPlan = append(tripPlan, round{exps0, func(s []RoundSummary) {
				s0 = s
				countRound(s0)
			}}, round{expsM, func(sm []RoundSummary) {
				for x, key := range keys {
					ott0[key] = s0[x].Mean
					ottm[key] = sm[x].Mean
					if !s0[x].Converged || !sm[x].Converged {
						worst := s0[x].RelErr()
						if e := sm[x].RelErr(); e > worst {
							worst = e
						}
						if e, ok := suspect[key]; !ok || worst > e {
							suspect[key] = worst
						}
					}
				}
				countRound(sm)
			}})
		}
	}

	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		p1 := obsBegin(r, "phase:round-trips")
		runRounds(r, opt.Mpib, pairPlan, &rep)
		obsEnd(r, p1)
		p2 := obsBegin(r, "phase:one-to-two")
		runRounds(r, opt.Mpib, tripPlan, &rep)
		obsEnd(r, p2)
	})
	if err != nil {
		return nil, rep, err
	}
	rep.Cost = res.Duration

	// Per-triplet solutions for the processor parameters, accumulated
	// for eq (12) averaging; the link parameters then follow directly
	// from every pair's round-trips with the averaged C and t (the
	// per-triplet L/β instances of eq 12 average to exactly this).
	//
	// Graceful degradation: a processor's contribution from a triplet
	// whose one-to-two measurement is suspect is kept out of the
	// average — eq (12)'s redundancy (every processor appears in many
	// triplets) covers the gap. Should every contribution of some
	// processor be suspect, the drop is abandoned for that processor
	// and the suspect values are used anyway: a degraded estimate
	// beats none, and Confidence exposes the situation.
	model := models.NewLMOX(n)
	sumC := make([]float64, n)
	sumT := make([]float64, n)
	cntCT := make([]int, n)
	sumCAll := make([]float64, n)
	sumTAll := make([]float64, n)
	cntAll := make([]int, n)
	droppedSeen := make(map[[3]int]bool)

	for _, tr := range triplets {
		tt := TripletTimes{
			I: tr.I, J: tr.J, K: tr.K, M: opt.MsgSize,
			RT0: rt0, RTM: rtm,
			OneToTwo0: map[int]float64{},
			OneToTwoM: map[int]float64{},
		}
		for _, x := range []int{tr.I, tr.J, tr.K} {
			lo, hi := minmax2(otherTwo(tr, x))
			tt.OneToTwo0[x] = ott0[[3]int{x, lo, hi}]
			tt.OneToTwoM[x] = ottm[[3]int{x, lo, hi}]
		}
		sol := SolveTriplet(tt)
		// Host-side solve: virtual time is frozen at res.Duration, so the
		// solver appears as instants at the end of the global track.
		opt.Obs.Point(obs.CatEstimate, "solve:triplet", obs.GlobalTrack, res.Duration)
		for _, x := range []int{tr.I, tr.J, tr.K} {
			lo, hi := minmax2(otherTwo(tr, x))
			key := [3]int{x, lo, hi}
			sumCAll[x] += sol.C[x]
			sumTAll[x] += sol.T[x]
			cntAll[x]++
			if relErr, bad := suspect[key]; bad {
				if !droppedSeen[key] {
					droppedSeen[key] = true
					rep.Dropped = append(rep.Dropped, DroppedExp{Initiator: x, Lo: lo, Hi: hi, RelErr: relErr})
				}
				continue
			}
			sumC[x] += sol.C[x]
			sumT[x] += sol.T[x]
			cntCT[x]++
		}
	}

	rep.Confidence = make([]float64, n)
	for x := 0; x < n; x++ {
		switch {
		case cntCT[x] > 0:
			model.C[x] = sumC[x] / float64(cntCT[x])
			model.T[x] = sumT[x] / float64(cntCT[x])
			if cntAll[x] > 0 {
				rep.Confidence[x] = float64(cntCT[x]) / float64(cntAll[x])
			}
		case cntAll[x] > 0:
			// Every contribution suspect: fall back to the full average.
			model.C[x] = sumCAll[x] / float64(cntAll[x])
			model.T[x] = sumTAll[x] / float64(cntAll[x])
		}
	}
	mf := float64(opt.MsgSize)
	for _, p := range AllPairs(n) {
		l := rt0[p]/2 - model.C[p.I] - model.C[p.J]
		if l < 0 {
			l = 0
		}
		model.L[p.I][p.J], model.L[p.J][p.I] = l, l
		ib := (rtm[p]/2-model.C[p.I]-l-model.C[p.J])/mf - model.T[p.I] - model.T[p.J]
		if ib > 0 {
			model.Beta[p.I][p.J], model.Beta[p.J][p.I] = 1/ib, 1/ib
		} else {
			model.Beta[p.I][p.J], model.Beta[p.J][p.I] = math.Inf(1), math.Inf(1)
		}
	}
	opt.Obs.Point(obs.CatEstimate, "solve:eq12", obs.GlobalTrack, res.Duration)
	return model, rep, nil
}

// otherTwo returns the two members of tr that are not x.
func otherTwo(tr Triplet, x int) (int, int) {
	switch x {
	case tr.I:
		return tr.J, tr.K
	case tr.J:
		return tr.I, tr.K
	default:
		return tr.I, tr.J
	}
}

func minmax2(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}
