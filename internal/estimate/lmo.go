package estimate

import (
	"fmt"
	"math"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// The LMO family's triplet design. A triplet's members are addressed
// by member slot 0, 1, 2, ascending by processor, and its three round
// trips by pair slot: pair slot p joins the members tripletPairs[p].
var tripletPairs = [3][2]int{{0, 1}, {0, 2}, {1, 2}}

// rotation is one of a triplet's three one-to-two experiments, by
// member slot: init sends to first, then to desig, and collects desig's
// reply first (oneToTwoExp), so the experiment's critical path runs
// through desig, its designated destination, deterministically. rt is
// the pair slot of the init–desig round trip: eqs (8) and (11) read it
// in place of the paper's max over branches, which the max reduces to
// under this pinned design.
type rotation struct{ init, first, desig, rt int }

// rotations is the one-to-two design of LMOX and LMOGrouped, listed
// by initiator slot: every one-to-two experiment they run is one of
// these rotations, and every solve, LMOOriginal's over LMOX's records
// included, reads its designated round trip from here. The designated
// destination is the higher of the initiator's two partners.
var rotations = [3]rotation{{0, 1, 2, 1}, {1, 0, 2, 2}, {2, 0, 1, 2}}

// exp builds the rotation's experiment over the members p with m-byte
// messages. Replies are always empty: the paper's guard against the
// gather escalations contaminating the estimation.
func (r rotation) exp(p [3]int, m, tag int) Exp {
	return oneToTwoExp(p[r.init], p[r.first], p[r.desig], m, 0, tag)
}

// TripletTimes holds the measured execution times of the experiments
// involving one triplet: the three round trips, by pair slot, and the
// three one-to-two experiments, by initiator slot, each with empty and
// with M-byte messages. Times are in seconds, measured on the
// initiator (the paper's sender-side timing).
type TripletTimes struct {
	Members [3]int // the processors, ascending
	M       int    // the non-empty message size used

	RT0, RTM             [3]float64 // T_xy(0) and T_xy(M)
	OneToTwo0, OneToTwoM [3]float64 // T_x{y,z}(0) and T_x{y,z}(M)
}

// pairKey normalizes an unordered pair.
func pairKey(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// roundTrips fills tt's round trips from per-pair measurements.
func (tt *TripletTimes) roundTrips(rt0, rtm map[Pair]float64) {
	for p, pr := range tripletPairs {
		k := Pair{tt.Members[pr[0]], tt.Members[pr[1]]}
		tt.RT0[p], tt.RTM[p] = rt0[k], rtm[k]
	}
}

// oneToTwoExps builds rotation r of the listed triplets with m-byte
// messages, experiment x tagged x.
func oneToTwoExps(tts []TripletTimes, idx []int, r rotation, m int) []Exp {
	exps := make([]Exp, len(idx))
	for x, ti := range idx {
		exps[x] = r.exp(tts[ti].Members, m, x)
	}
	return exps
}

// TripletSolution is the closed-form solution of eqs (8) and (11) for
// one triplet: the processor parameters by member slot, the link
// parameters by pair slot.
type TripletSolution struct {
	C, T    [3]float64 // fixed and per-byte processing delays
	L, Beta [3]float64 // fixed link latencies, transmission rates (bytes/second)
}

// SolveTriplet applies the paper's closed forms: eq (8) for the
// constant parameters and eq (11) for the variable ones, each
// processor's from its one-to-two experiment and designated round
// trip, each link's from its round trips.
func SolveTriplet(tt TripletTimes) (sol TripletSolution) {
	m := float64(tt.M)
	for _, r := range rotations {
		x := r.init
		sol.C[x], sol.T[x] = processorCT(tt.OneToTwo0[x], tt.OneToTwoM[x], tt.RT0[r.rt], tt.RTM[r.rt], m)
	}
	for p, pr := range tripletPairs {
		a, b := pr[0], pr[1]
		l, ib := linkLInvB(tt.RT0[p], tt.RTM[p], sol.C[a], sol.C[b], sol.T[a], sol.T[b], m)
		sol.L[p], sol.Beta[p] = l, rate(ib)
	}
	return sol
}

// processorCT solves eqs (8) and (11) for a processor x from its
// one-to-two experiment and its round trip with the experiment's
// designated destination d, each at 0 and M bytes:
//
//	C_x = (T_x{y,z}(0) − T_xd(0)) / 2
//	t_x = (T_x{y,z}(M) − (T_xd(0) + T_xd(M))/2 − 2C_x) / M
//
// A negative estimate clamps to zero.
func processorCT(ott0, ottm, rt0, rtm, m float64) (c, t float64) {
	c = (ott0 - rt0) / 2
	if c < 0 {
		c = 0
	}
	return c, processorT(ottm, rt0, rtm, c, m)
}

// processorT is eq (11)'s t_x alone, given C_x: LMOOriginal takes its
// C from round-trip triangles instead.
func processorT(ottm, rt0, rtm, c, m float64) float64 {
	t := (ottm - (rt0+rtm)/2 - 2*c) / m
	if t < 0 {
		return 0
	}
	return t
}

// linkLInvB solves eqs (8) and (11) for a link xy from its round trips
// at 0 and M bytes once C and t of x and y are known:
//
//	L_xy   = T_xy(0)/2 − C_x − C_y
//	1/β_xy = (T_xy(M)/2 − C_x − L_xy − C_y)/M − t_x − t_y
//
// A negative L clamps to zero; the callers decide what a non-positive
// 1/β stands for.
func linkLInvB(rt0, rtm, cx, cy, tx, ty, m float64) (l, invB float64) {
	l = rt0/2 - cx - cy
	if l < 0 {
		l = 0
	}
	return l, linkInvB(rtm, cx, l, cy, tx, ty, m)
}

// linkInvB is eq (11)'s 1/β_xy alone, given L_xy: LMOOriginal, whose
// model has no L, passes 0.
func linkInvB(rtm, cx, l, cy, tx, ty, m float64) float64 {
	return (rtm/2-cx-l-cy)/m - tx - ty
}

// rate returns the transmission rate of a link with inverse rate invB:
// a non-positive inverse is an infinitely fast link (degenerate).
func rate(invB float64) float64 {
	if invB > 0 {
		return 1 / invB
	}
	return math.Inf(1)
}

// roundTripPlan is the one builder of round-trip phases: for each
// round of pairs and each message size in turn, a round of p.I ⇄ p.J
// round trips, experiment x tagged x, whose finishing rank calls
// record with the pair, the size's index k and the mean round-trip
// time.
func roundTripPlan(rounds [][]Pair, sizes []int, record func(p Pair, k int, mean float64)) []round {
	plan := make([]round, 0, len(rounds)*len(sizes))
	for _, rd := range rounds {
		for k, m := range sizes {
			// A copy per round, which its closure captures by value: one
			// shared by the closures of every size would move to the heap.
			pairs := rd
			exps := make([]Exp, len(pairs))
			for x, p := range pairs {
				exps[x] = roundtripExp(p.I, p.J, m, m, x)
			}
			plan = append(plan, round{exps, func(s []RoundSummary) {
				for x, p := range pairs {
					record(p, k, s[x].Mean)
				}
			}})
		}
	}
	return plan
}

// LMOX estimates the extended LMO model per §IV: C(n,2) round-trips and
// 3·C(n,3) one-to-two experiments, each with empty and with
// MsgSize-byte messages; per-triplet closed-form solutions; and
// redundancy averaging per eq (12) — C_x and t_x from every triplet
// containing x, L_xy and β_xy from every triplet containing the pair.
func LMOX(cfg mpi.Config, opt Options) (*models.LMOX, Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, Report{}, err
	}
	n := cfg.Cluster.N()
	if n < 3 {
		return nil, Report{}, fmt.Errorf("estimate: LMO estimation needs at least 3 processors, have %d", n)
	}
	rep := Report{}

	rt0 := make(map[Pair]float64)
	rtm := make(map[Pair]float64)
	triplets := AllTriplets(n)
	if opt.TripletCoverage > 0 {
		triplets = SampleTriplets(n, opt.TripletCoverage)
	}
	tts := make([]TripletTimes, len(triplets)) // one record per triplet
	for i, tr := range triplets {
		tts[i] = TripletTimes{Members: [3]int{tr.I, tr.J, tr.K}, M: opt.MsgSize}
	}

	// suspect records the one-to-two measurements whose CI never met
	// the target (after retries), keyed by (triplet, initiator slot):
	// their triplet contributions are excluded from the eq-(12)
	// averaging below, which tolerates the loss thanks to the
	// redundancy. The value is the worst relative error observed.
	suspect := make(map[[2]int]float64)

	// Phase 1: round-trips with empty and with M-byte messages.
	rt := [2]map[Pair]float64{rt0, rtm}
	pairPlan := roundTripPlan(pairSchedule(n, opt.Parallel), []int{0, opt.MsgSize}, func(p Pair, k int, mean float64) {
		rt[k][p] = mean
	})
	// Phase 2: one-to-two experiments; each round of triplets runs the
	// three rotations, with empty and M-byte messages. The empty round
	// leaves its summaries in empty, from where the M-byte round reads
	// them with its own.
	schedule := tripletSchedule(n, triplets, opt.Parallel)
	tripPlan := make([]round, 0, 2*len(rotations)*len(schedule))
	empty := make([][]RoundSummary, len(rotations)*len(schedule))
	for _, idx := range schedule {
		// The closures capture a copy of idx by value: the loop variable
		// itself would move to the heap.
		idx := idx
		for _, r := range rotations {
			x, k := r.init, len(tripPlan)/2 // k: the rotation's slot in empty
			tripPlan = append(tripPlan, round{oneToTwoExps(tts, idx, r, 0), func(s []RoundSummary) {
				empty[k] = s
			}}, round{oneToTwoExps(tts, idx, r, opt.MsgSize), func(sm []RoundSummary) {
				s0 := empty[k]
				for e, ti := range idx {
					tts[ti].OneToTwo0[x], tts[ti].OneToTwoM[x] = s0[e].Mean, sm[e].Mean
					if !s0[e].Converged || !sm[e].Converged {
						worst := s0[e].RelErr()
						if re := sm[e].RelErr(); re > worst {
							worst = re
						}
						suspect[[2]int{ti, x}] = worst
					}
				}
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

	for ti := range tts {
		tt := &tts[ti]
		tt.roundTrips(rt0, rtm)
		sol := SolveTriplet(*tt)
		// Host-side solve: virtual time is frozen at res.Duration, so the
		// solver appears as instants at the end of the global track.
		opt.Obs.Point(obs.CatEstimate, "solve:triplet", obs.GlobalTrack, res.Duration)
		for _, r := range rotations {
			s := r.init
			x := tt.Members[s]
			sumCAll[x] += sol.C[s]
			sumTAll[x] += sol.T[s]
			cntAll[x]++
			if relErr, bad := suspect[[2]int{ti, s}]; bad {
				rep.Dropped = append(rep.Dropped, DroppedExp{Initiator: x, Lo: tt.Members[r.first], Hi: tt.Members[r.desig], RelErr: relErr})
				continue
			}
			sumC[x] += sol.C[s]
			sumT[x] += sol.T[s]
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
		l, ib := linkLInvB(rt0[p], rtm[p], model.C[p.I], model.C[p.J], model.T[p.I], model.T[p.J], mf)
		beta := rate(ib)
		model.L[p.I][p.J], model.L[p.J][p.I] = l, l
		model.Beta[p.I][p.J], model.Beta[p.J][p.I] = beta, beta
	}
	opt.Obs.Point(obs.CatEstimate, "solve:eq12", obs.GlobalTrack, res.Duration)
	rep.triplets = tts
	return model, rep, nil
}
