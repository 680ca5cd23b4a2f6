package estimate

// Logical homogeneous groups: the scalability extension of §IV. On a
// large cluster the full LMO procedure is O(n²) round-trips plus
// O(n³) one-to-two experiments; but real installations are built from
// racks of identical machines, so most of those experiments measure
// the same numbers over and over. This file detects the logical
// groups — sets of processors with statistically indistinguishable
// C/t and intra-group L/β — with O(n) probes, then estimates one LMO
// parameter set per group and one link parameter set per inter-group
// link class, collapsing the 1024-node fat-tree from ~10⁸ triplet
// experiments to a few dozen.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/topo"
)

// Grouping is the detector's output: a partition of the processors
// into logical homogeneous groups. Groups are ordered by their
// smallest member; members are ascending.
type Grouping struct {
	Of     []int   // Of[node] = index into Groups
	Groups [][]int // members of each group
}

// NumGroups returns the number of logical groups.
func (g *Grouping) NumGroups() int { return len(g.Groups) }

// sig is a node-pair probe signature: the mean round-trip times with
// empty and with MsgSize-byte messages, in seconds. Two pairs with
// close signatures are indistinguishable at the probe level.
type sig struct{ rt0, rtm float64 }

func sigsClose(a, b sig, tol float64) bool {
	return symClose(a.rt0, b.rt0, tol) && symClose(a.rtm, b.rtm, tol)
}

func symClose(a, b, tol float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*m
}

// probe is one round-trip probe between two nodes.
type probe struct{ a, b int }

func (p probe) key() [2]int {
	if p.a > p.b {
		return [2]int{p.b, p.a}
	}
	return [2]int{p.a, p.b}
}

// packRounds packs probes into measurement rounds. Probes of the same
// shard may share endpoints and run in successive rounds; distinct
// non-negative shards are disjoint node sets (different leaf switches)
// and share rounds. A negative shard marks a probe that may cross the
// fabric: it gets a round of its own, serialized after everything
// else, so probes never contend with each other.
func packRounds(probes []probe, shard []int) [][]probe {
	perShard := map[int][]probe{}
	var shardOrder []int
	var solo []probe
	for i, p := range probes {
		s := shard[i]
		if s < 0 {
			solo = append(solo, p)
			continue
		}
		if _, seen := perShard[s]; !seen {
			shardOrder = append(shardOrder, s)
		}
		perShard[s] = append(perShard[s], p)
	}
	var rounds [][]probe
	for depth := 0; ; depth++ {
		var round []probe
		for _, s := range shardOrder {
			if ps := perShard[s]; depth < len(ps) {
				round = append(round, ps[depth])
			}
		}
		if len(round) == 0 {
			break
		}
		rounds = append(rounds, round)
	}
	for _, p := range solo {
		rounds = append(rounds, []probe{p})
	}
	return rounds
}

// measureProbes runs the packed probe rounds in one job and returns
// the signature of every measured pair.
func measureProbes(cfg mpi.Config, opt Options, rounds [][]probe, rep *Report) (map[[2]int]sig, error) {
	out := map[[2]int]sig{}
	if len(rounds) == 0 {
		return out, nil
	}
	plan := make([]round, 0, 2*len(rounds))
	for _, probes := range rounds {
		exps0 := make([]Exp, len(probes))
		expsM := make([]Exp, len(probes))
		for x, p := range probes {
			exps0[x] = roundtripExp(p.a, p.b, 0, 0, x)
			expsM[x] = roundtripExp(p.a, p.b, opt.MsgSize, opt.MsgSize, x)
		}
		var s0 []RoundSummary
		plan = append(plan, round{exps0, func(s []RoundSummary) { s0 = s }}, round{expsM, func(sm []RoundSummary) {
			for x, p := range probes {
				out[p.key()] = sig{s0[x].Mean, sm[x].Mean}
			}
		}})
	}
	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		runRounds(r, opt.Mpib, plan, rep)
	})
	if err != nil {
		return nil, err
	}
	rep.Cost += res.Duration
	return out, nil
}

// bandMembers greedily bands members by their reference-view
// signatures: each member joins the first band whose exemplar is
// within tol, in ascending member order. Deterministic by
// construction.
func bandMembers(members []int, sigOf func(int) sig, tol float64) [][]int {
	var bands [][]int
	for _, m := range members {
		placed := false
		for bi, b := range bands {
			if sigsClose(sigOf(b[0]), sigOf(m), tol) {
				bands[bi] = append(bands[bi], m)
				placed = true
				break
			}
		}
		if !placed {
			bands = append(bands, []int{m})
		}
	}
	return bands
}

// witnessCheck describes how to decide whether the reference node of a
// candidate set belongs to one of its bands: compare the signature of
// pair (a1,b1) against pair (a2,b2). A check with a1 < 0 passes
// automatically (no witness available — the optimistic merge of a
// 2-node universe).
type witnessCheck struct{ a1, b1, a2, b2 int }

func (w witnessCheck) pass(sigs map[[2]int]sig, tol float64) bool {
	if w.a1 < 0 {
		return true
	}
	s1, ok1 := sigs[probe{w.a1, w.b1}.key()]
	s2, ok2 := sigs[probe{w.a2, w.b2}.key()]
	if !ok1 || !ok2 {
		return false
	}
	return sigsClose(s1, s2, tol)
}

// bandCheck builds the witness check for band B against ref:
//
//   - |B| ≥ 2: ref joins B iff sig(ref,B₀) ≈ sig(B₀,B₁). If ref's
//     hardware differs, the ref-side probe is shifted while the
//     intra-band one is not.
//   - |B| = 1: the pair probe alone cannot say whether ref or B₀ is
//     the odd one out, so an outside witness z equidistant from both
//     (same switch as neither, or same switch as both) breaks the tie:
//     ref joins iff sig(B₀,z) ≈ sig(ref,z).
//
// The probes the check needs beyond run 1 are appended to need.
func bandCheck(ref int, band []int, z int, need *[]probe, needShard *[]int, shard int) witnessCheck {
	if len(band) >= 2 {
		*need = append(*need, probe{band[0], band[1]})
		*needShard = append(*needShard, shard)
		return witnessCheck{ref, band[0], band[0], band[1]}
	}
	if z < 0 {
		return witnessCheck{-1, -1, -1, -1}
	}
	*need = append(*need, probe{band[0], z})
	*needShard = append(*needShard, shard)
	*need = append(*need, probe{ref, z})
	*needShard = append(*needShard, shard)
	return witnessCheck{band[0], z, ref, z}
}

// DetectGroups discovers the logical homogeneous groups of the
// cluster from timing probes. With a topology attached (and GroupBlind
// unset) the leaf switches are used as candidate sets and probed in
// parallel — the fabric guarantees the probes are contention-free —
// needing two jobs in total. Without the hint the detector peels one
// group at a time: the lowest unassigned node probes every other
// unassigned node serially, the replies are banded by signature, and
// witness probes decide which band the prober itself belongs to.
func DetectGroups(cfg mpi.Config, opt Options) (*Grouping, Report, error) {
	opt = opt.withDefaults()
	n := cfg.Cluster.N()
	if n == 0 {
		return nil, Report{}, fmt.Errorf("estimate: empty cluster")
	}
	rep := Report{}
	var groups [][]int
	var err error
	if t := cfg.Cluster.Topo; t != nil && !opt.GroupBlind {
		groups, err = detectHinted(cfg, opt, t.LeafGroups(), &rep)
	} else {
		groups, err = detectBlind(cfg, opt, &rep)
	}
	if err != nil {
		return nil, rep, err
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	g := &Grouping{Of: make([]int, n), Groups: groups}
	for gi, members := range groups {
		for _, m := range members {
			g.Of[m] = gi
		}
	}
	return g, rep, nil
}

// detectHinted runs the topology-hinted detection: every leaf's
// reference node probes its co-resident nodes (leaves in parallel,
// members in sequence), then witness probes settle each leaf's
// reference assignment.
func detectHinted(cfg mpi.Config, opt Options, leaves [][]int, rep *Report) ([][]int, error) {
	// Run 1: per-leaf reference probes.
	var probes []probe
	var shard []int
	for li, leaf := range leaves {
		for _, m := range leaf[1:] {
			probes = append(probes, probe{leaf[0], m})
			shard = append(shard, li)
		}
	}
	sigs, err := measureProbes(cfg, opt, packRounds(probes, shard), rep)
	if err != nil {
		return nil, err
	}

	bands := make([][][]int, len(leaves))
	checks := make([][]witnessCheck, len(leaves))
	var need []probe
	var needShard []int
	for li, leaf := range leaves {
		if len(leaf) < 2 {
			continue
		}
		ref := leaf[0]
		sigOf := func(m int) sig { return sigs[probe{ref, m}.key()] }
		bands[li] = bandMembers(leaf[1:], sigOf, opt.GroupTol)
		for bi, band := range bands[li] {
			// Witness for a singleton band: a node from another band of
			// the same leaf keeps the probes on-switch; otherwise borrow
			// a node from another leaf (the pair then crosses the fabric
			// and is serialized by packRounds).
			z, zShard := -1, li
			if len(band) == 1 {
				for obi, ob := range bands[li] {
					if obi != bi {
						z = ob[0]
						break
					}
				}
				if z < 0 {
					for lj, other := range leaves {
						if lj != li {
							z, zShard = other[0], -1
							break
						}
					}
				}
			}
			checks[li] = append(checks[li], bandCheck(ref, band, z, &need, &needShard, zShard))
		}
	}
	// Run 2: the witness probes (deduplicated against run 1).
	var fresh []probe
	var freshShard []int
	for i, p := range need {
		if _, done := sigs[p.key()]; !done {
			fresh = append(fresh, p)
			freshShard = append(freshShard, needShard[i])
		}
	}
	more, err := measureProbes(cfg, opt, packRounds(fresh, freshShard), rep)
	if err != nil {
		return nil, err
	}
	// Entry-wise merge: insertion order cannot affect the result.
	//lmovet:commutative
	for k, v := range more {
		sigs[k] = v
	}

	var groups [][]int
	for li, leaf := range leaves {
		if len(leaf) < 2 {
			groups = append(groups, append([]int(nil), leaf...))
			continue
		}
		groups = append(groups, resolve(leaf[0], bands[li], checks[li], sigs, opt.GroupTol)...)
	}
	return groups, nil
}

// resolve turns one candidate set's bands into groups: the reference
// node joins the first band whose witness check passes (its own
// singleton group if none does); every other band is a group of its
// own.
func resolve(ref int, bands [][]int, checks []witnessCheck, sigs map[[2]int]sig, tol float64) [][]int {
	refBand := -1
	for bi := range bands {
		if checks[bi].pass(sigs, tol) {
			refBand = bi
			break
		}
	}
	var groups [][]int
	if refBand < 0 {
		groups = append(groups, []int{ref})
	}
	for bi, band := range bands {
		g := append([]int(nil), band...)
		if bi == refBand {
			g = append(g, ref)
			sort.Ints(g)
		}
		groups = append(groups, g)
	}
	return groups
}

// detectBlind peels groups without a topology hint. All probes are
// serialized: with the fabric unknown, two concurrent probes could
// share a trunk and contaminate each other.
func detectBlind(cfg mpi.Config, opt Options, rep *Report) ([][]int, error) {
	n := cfg.Cluster.N()
	unassigned := make([]int, n)
	for i := range unassigned {
		unassigned[i] = i
	}
	var groups [][]int
	var assigned []int
	for len(unassigned) > 0 {
		ref, rest := unassigned[0], unassigned[1:]
		if len(rest) == 0 {
			groups = append(groups, []int{ref})
			break
		}
		// Run 1: ref probes every unassigned node, one at a time.
		var probes []probe
		var shard []int
		for _, m := range rest {
			probes = append(probes, probe{ref, m})
			shard = append(shard, -1)
		}
		sigs, err := measureProbes(cfg, opt, packRounds(probes, shard), rep)
		if err != nil {
			return nil, err
		}
		sigOf := func(m int) sig { return sigs[probe{ref, m}.key()] }
		bands := bandMembers(rest, sigOf, opt.GroupTol)
		// Run 2: witness probes. A singleton band's outside witness
		// comes from another band, or from an already-assigned node.
		var checks []witnessCheck
		var need []probe
		var needShard []int
		for bi, band := range bands {
			z := -1
			if len(band) == 1 {
				for obi, ob := range bands {
					if obi != bi {
						z = ob[0]
						break
					}
				}
				if z < 0 && len(assigned) > 0 {
					z = assigned[0]
				}
			}
			checks = append(checks, bandCheck(ref, band, z, &need, &needShard, -1))
		}
		var fresh []probe
		var freshShard []int
		for i, p := range need {
			if _, done := sigs[p.key()]; !done {
				fresh = append(fresh, p)
				freshShard = append(freshShard, needShard[i])
			}
		}
		more, err := measureProbes(cfg, opt, packRounds(fresh, freshShard), rep)
		if err != nil {
			return nil, err
		}
		// Entry-wise merge: insertion order cannot affect the result.
		//lmovet:commutative
		for k, v := range more {
			sigs[k] = v
		}
		// The reference's band becomes a finished group; the other bands
		// return to the pool and are peeled with a reference of their own
		// (their members may span distinct distant groups that look alike
		// from here).
		refBand := -1
		for bi := range bands {
			if checks[bi].pass(sigs, opt.GroupTol) {
				refBand = bi
				break
			}
		}
		group := []int{ref}
		if refBand >= 0 {
			group = append(group, bands[refBand]...)
			sort.Ints(group)
		}
		groups = append(groups, group)
		assigned = append(assigned, group...)
		inGroup := map[int]bool{}
		for _, m := range group {
			inGroup[m] = true
		}
		var left []int
		for _, m := range unassigned {
			if !inGroup[m] {
				left = append(left, m)
			}
		}
		unassigned = left
	}
	return groups, nil
}

// groupTriplet is the measurement plan of one group with at least
// three members: a triplet of representatives (the group's first three)
// and the raw experiment times. Index convention: pair slot 0 =
// (t0,t1), 1 = (t0,t2), 2 = (t1,t2); one-to-two slot r has initiator
// trip[r].
type groupTriplet struct {
	trip       [3]int
	rt0, rtm   [3]float64
	ott0, ottm [3]float64
}

// smallPlan is the measurement plan of a group too small for an
// intra-group triplet (one or two members). Each member runs a
// one-to-two experiment against a witness pair borrowed from another
// group: both branches then cross the fabric symmetrically, so the
// critical path provably runs through the designated (second) witness
// and eqs (8)/(11) apply per rotation. A borrowed-helper triplet would
// instead put the far helper on a non-designated branch, where the
// one-to-two degenerates into a plain round-trip and the solve absorbs
// fabric latency into C. The intra link of a two-member group follows
// from its round-trip once the members' C/t are known.
type smallPlan struct {
	w          [2]int    // witness pair: another group's first two members
	rt0, rtm   []float64 // per member: round-trip with w[1]
	ott0, ottm []float64 // per member: one-to-two over {w[0], w[1]}
	irt0, irtm float64   // intra round-trip (two-member groups only)
	c, t       []float64 // per-member solution
}

var tripPairs = [3][2]int{{0, 1}, {0, 2}, {1, 2}}

// interBucket is one inter-group link class: with a topology, all
// group pairs whose route shares (class, hop count); blind, one bucket
// per group pair. Up to three representative pairs are measured and
// averaged.
type interBucket struct {
	cls      topo.Class
	hops     int
	gi, gj   int // identity bucket when blind (class buckets use -1,-1)
	reps     [][2]int
	repGs    [][2]int
	rt0, rtm []float64
	L, invB  float64
}

// bySize picks the slot of a measurement at message size m: empty for
// the empty-message experiment, full for the MsgSize one.
func bySize(m int, empty, full *float64) *float64 {
	if m == 0 {
		return empty
	}
	return full
}

// meanInto records a one-experiment round's mean in *dst.
func meanInto(dst *float64) func([]RoundSummary) {
	return func(s []RoundSummary) { *dst = s[0].Mean }
}

// LMOGrouped estimates the LMO model of a large cluster through its
// logical groups: DetectGroups partitions the processors, one triplet
// of representatives per group yields the group's C/t and intra-group
// L/β (big groups measured in parallel — their triplets stay on their
// own leaf switches — small ones serially with borrowed helpers), and
// inter-group links are measured per link class rather than per pair.
// The result is expanded to a full per-node model. The gather
// irregularity scan is intentionally omitted: callers estimating at
// this scale opt into the collapsed procedure.
func LMOGrouped(cfg mpi.Config, opt Options) (*models.LMOX, *Grouping, Report, error) {
	opt = opt.withDefaults()
	n := cfg.Cluster.N()
	if n < 3 {
		return nil, nil, Report{}, fmt.Errorf("estimate: grouped LMO estimation needs at least 3 processors, have %d", n)
	}
	g, rep, err := DetectGroups(cfg, opt)
	if err != nil {
		return nil, g, rep, err
	}

	// Plan the per-group measurements: an intra triplet for groups of
	// three or more (sorted, so the designated-branch convention matches
	// the solver's), a witness-pair plan for smaller ones.
	ngr := len(g.Groups)
	gts := make([]*groupTriplet, ngr)
	smalls := make([]*smallPlan, ngr)
	pickWitness := func(gi int) [2]int {
		for gj, mem := range g.Groups {
			if gj != gi && len(mem) >= 2 {
				return [2]int{mem[0], mem[1]}
			}
		}
		// Degenerate: every other group is a singleton. Borrow the two
		// lowest-numbered outside nodes; their branches may be
		// asymmetric, a bias confined to clusters that are almost
		// entirely heterogeneous (where grouping buys nothing anyway).
		var w [2]int
		got := 0
		for x := 0; x < n && got < 2; x++ {
			if g.Of[x] != gi {
				w[got] = x
				got++
			}
		}
		return w
	}
	var parallelG, serialG []int
	for gi, members := range g.Groups {
		if len(members) >= 3 {
			gt := &groupTriplet{}
			copy(gt.trip[:], members[:3])
			gts[gi] = gt
			parallelG = append(parallelG, gi)
			continue
		}
		k := len(members)
		smalls[gi] = &smallPlan{
			w:   pickWitness(gi),
			rt0: make([]float64, k), rtm: make([]float64, k),
			ott0: make([]float64, k), ottm: make([]float64, k),
			c: make([]float64, k), t: make([]float64, k),
		}
		serialG = append(serialG, gi)
	}

	// Plan the inter-group buckets.
	var buckets []*interBucket
	bucketOf := make([]int, ngr*ngr)
	topol := cfg.Cluster.Topo
	if opt.GroupBlind {
		topol = nil
	}
	findBucket := func(gi, gj int) *interBucket {
		if topol != nil {
			rt := topol.Route(g.Groups[gi][0], g.Groups[gj][0])
			for _, b := range buckets {
				if b.gi < 0 && b.cls == rt.MaxClass && b.hops == len(rt.Hops) {
					return b
				}
			}
			b := &interBucket{cls: rt.MaxClass, hops: len(rt.Hops), gi: -1, gj: -1}
			buckets = append(buckets, b)
			return b
		}
		b := &interBucket{gi: gi, gj: gj}
		buckets = append(buckets, b)
		return b
	}
	for gi := 0; gi < ngr; gi++ {
		for gj := gi + 1; gj < ngr; gj++ {
			b := findBucket(gi, gj)
			if len(b.reps) < 3 {
				b.reps = append(b.reps, [2]int{g.Groups[gi][0], g.Groups[gj][0]})
				b.repGs = append(b.repGs, [2]int{gi, gj})
				b.rt0 = append(b.rt0, 0)
				b.rtm = append(b.rtm, 0)
			}
			for bi, bb := range buckets {
				if bb == b {
					bucketOf[gi*ngr+gj] = bi
				}
			}
		}
	}

	// One job measures everything: the parallel groups' twelve rounds,
	// then the helper-borrowing groups, then the inter-group buckets
	// (helpers and bucket pairs may cross the fabric, so those rounds
	// run one experiment at a time).
	var plan []round
	sizes := []int{0, opt.MsgSize}
	if len(parallelG) > 0 {
		for _, m := range sizes {
			for slot, pr := range tripPairs {
				exps := make([]Exp, len(parallelG))
				for x, gi := range parallelG {
					gt := gts[gi]
					exps[x] = roundtripExp(gt.trip[pr[0]], gt.trip[pr[1]], m, m, x)
				}
				plan = append(plan, round{exps, func(s []RoundSummary) {
					for x, gi := range parallelG {
						*bySize(m, &gts[gi].rt0[slot], &gts[gi].rtm[slot]) = s[x].Mean
					}
				}})
			}
			for rot := 0; rot < 3; rot++ {
				exps := make([]Exp, len(parallelG))
				for x, gi := range parallelG {
					t := gts[gi].trip
					var a, b, c int
					switch rot {
					case 0:
						a, b, c = t[0], t[1], t[2]
					case 1:
						a, b, c = t[1], t[0], t[2]
					default:
						a, b, c = t[2], t[0], t[1]
					}
					exps[x] = oneToTwoExp(a, b, c, m, 0, x)
				}
				plan = append(plan, round{exps, func(s []RoundSummary) {
					for x, gi := range parallelG {
						*bySize(m, &gts[gi].ott0[rot], &gts[gi].ottm[rot]) = s[x].Mean
					}
				}})
			}
		}
	}
	// Small groups: per member, a round-trip with the far witness and a
	// one-to-two over the witness pair, at both sizes, one experiment at
	// a time (the rounds cross the fabric).
	for _, gi := range serialG {
		sp := smalls[gi]
		members := g.Groups[gi]
		for _, m := range sizes {
			for xi, x := range members {
				plan = append(plan,
					round{[]Exp{roundtripExp(x, sp.w[1], m, m, 0)}, meanInto(bySize(m, &sp.rt0[xi], &sp.rtm[xi]))},
					round{[]Exp{oneToTwoExp(x, sp.w[0], sp.w[1], m, 0, 0)}, meanInto(bySize(m, &sp.ott0[xi], &sp.ottm[xi]))})
			}
			if len(members) == 2 {
				plan = append(plan, round{[]Exp{roundtripExp(members[0], members[1], m, m, 0)}, meanInto(bySize(m, &sp.irt0, &sp.irtm))})
			}
		}
	}
	for _, b := range buckets {
		for ri, pr := range b.reps {
			for _, m := range sizes {
				plan = append(plan, round{[]Exp{roundtripExp(pr[0], pr[1], m, m, 0)}, meanInto(bySize(m, &b.rt0[ri], &b.rtm[ri]))})
			}
		}
	}
	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		runRounds(r, opt.Mpib, plan, &rep)
	})
	if err != nil {
		return nil, g, rep, err
	}
	rep.Cost += res.Duration

	// Solve each big group's triplet and average the members'
	// parameters.
	type groupEst struct{ c, t, intraL, intraInvB float64 }
	est := make([]groupEst, ngr)
	mf := float64(opt.MsgSize)
	for _, gi := range parallelG {
		gt := gts[gi]
		tt := TripletTimes{
			I: gt.trip[0], J: gt.trip[1], K: gt.trip[2], M: opt.MsgSize,
			RT0: map[Pair]float64{}, RTM: map[Pair]float64{},
			OneToTwo0: map[int]float64{}, OneToTwoM: map[int]float64{},
		}
		for slot, pr := range tripPairs {
			tt.RT0[pairKey(gt.trip[pr[0]], gt.trip[pr[1]])] = gt.rt0[slot]
			tt.RTM[pairKey(gt.trip[pr[0]], gt.trip[pr[1]])] = gt.rtm[slot]
		}
		for rot := 0; rot < 3; rot++ {
			var init int
			switch rot {
			case 0:
				init = gt.trip[0]
			case 1:
				init = gt.trip[1]
			default:
				init = gt.trip[2]
			}
			tt.OneToTwo0[init] = gt.ott0[rot]
			tt.OneToTwoM[init] = gt.ottm[rot]
		}
		sol := SolveTriplet(tt)
		own := 0
		for _, x := range gt.trip {
			if g.Of[x] == gi {
				est[gi].c += sol.C[x]
				est[gi].t += sol.T[x]
				own++
			}
		}
		est[gi].c /= float64(own)
		est[gi].t /= float64(own)
		// Intra-group link: average over the triplet pairs whose both
		// endpoints belong to the group (groups of one have none).
		pairs := 0
		for _, pr := range tripPairs {
			a, b := gt.trip[pr[0]], gt.trip[pr[1]]
			if g.Of[a] != gi || g.Of[b] != gi {
				continue
			}
			est[gi].intraL += sol.L[pairKey(a, b)]
			est[gi].intraInvB += 1 / sol.Beta[pairKey(a, b)] // Inf → 0, naturally
			pairs++
		}
		if pairs > 0 {
			est[gi].intraL /= float64(pairs)
			est[gi].intraInvB /= float64(pairs)
		}
	}

	// Solve the small groups: eq (8)/(11) per member from its witness
	// rotation, then the intra link of two-member groups from the
	// members' round-trip with C/t known.
	for _, gi := range serialG {
		sp := smalls[gi]
		members := g.Groups[gi]
		for xi := range members {
			c := (sp.ott0[xi] - sp.rt0[xi]) / 2
			if c < 0 {
				c = 0
			}
			tx := (sp.ottm[xi] - (sp.rt0[xi]+sp.rtm[xi])/2 - 2*c) / mf
			if tx < 0 {
				tx = 0
			}
			sp.c[xi], sp.t[xi] = c, tx
			est[gi].c += c
			est[gi].t += tx
		}
		est[gi].c /= float64(len(members))
		est[gi].t /= float64(len(members))
		if len(members) == 2 {
			l := sp.irt0/2 - sp.c[0] - sp.c[1]
			if l < 0 {
				l = 0
			}
			ib := (sp.irtm/2-sp.c[0]-l-sp.c[1])/mf - sp.t[0] - sp.t[1]
			if ib < 0 {
				ib = 0
			}
			est[gi].intraL, est[gi].intraInvB = l, ib
		}
	}

	// Solve each inter-group bucket with the groups' C/t known.
	for _, b := range buckets {
		for ri := range b.reps {
			ga, gb := est[b.repGs[ri][0]], est[b.repGs[ri][1]]
			l := b.rt0[ri]/2 - ga.c - gb.c
			if l < 0 {
				l = 0
			}
			ib := (b.rtm[ri]/2-ga.c-l-gb.c)/mf - ga.t - gb.t
			if ib < 0 {
				ib = 0
			}
			b.L += l
			b.invB += ib
		}
		b.L /= float64(len(b.reps))
		b.invB /= float64(len(b.reps))
	}

	// Expand to the full per-node model.
	model := models.NewLMOX(n)
	for i := 0; i < n; i++ {
		model.C[i] = est[g.Of[i]].c
		model.T[i] = est[g.Of[i]].t
	}
	setLink := func(i, j int, l, ib float64) {
		model.L[i][j], model.L[j][i] = l, l
		beta := math.Inf(1)
		if ib > 0 {
			beta = 1 / ib
		}
		model.Beta[i][j], model.Beta[j][i] = beta, beta
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gi, gj := g.Of[i], g.Of[j]
			if gi == gj {
				setLink(i, j, est[gi].intraL, est[gi].intraInvB)
				continue
			}
			if gi > gj {
				gi, gj = gj, gi
			}
			b := buckets[bucketOf[gi*ngr+gj]]
			setLink(i, j, b.L, b.invB)
		}
	}
	return model, g, rep, nil
}
