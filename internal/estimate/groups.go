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
	"slices"
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
// empty and with MsgSize-byte messages, in seconds, by size slot. Two
// pairs with close signatures are indistinguishable at the probe level.
type sig [2]float64

func sigsClose(a, b sig, tol float64) bool {
	return symClose(a[0], b[0], tol) && symClose(a[1], b[1], tol)
}

func symClose(a, b, tol float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*m
}

// packRounds packs probes into measurement rounds. Probes of the same
// shard may share endpoints and run in successive rounds; distinct
// non-negative shards are disjoint node sets (different leaf switches)
// and share rounds. A negative shard marks a probe that may cross the
// fabric: it gets a round of its own, serialized after everything
// else, so probes never contend with each other. A probe is a
// round trip initiated by its pair's I.
func packRounds(probes []Pair, shard []int) [][]Pair {
	perShard := map[int][]Pair{}
	var shardOrder []int
	var solo []Pair
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
	var rounds [][]Pair
	for depth := 0; ; depth++ {
		var round []Pair
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
		rounds = append(rounds, []Pair{p})
	}
	return rounds
}

// measureProbes runs the packed probe rounds in one job and returns
// the signature of every measured pair, keyed by pairKey.
func measureProbes(cfg mpi.Config, opt Options, rounds [][]Pair, rep *Report) (map[Pair]sig, error) {
	out := map[Pair]sig{}
	if len(rounds) == 0 {
		return out, nil
	}
	plan := roundTripPlan(rounds, []int{0, opt.MsgSize}, func(p Pair, k int, mean float64) {
		key := pairKey(p.I, p.J)
		s := out[key]
		s[k] = mean
		out[key] = s
	})
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

func (w witnessCheck) pass(sigs map[Pair]sig, tol float64) bool {
	if w.a1 < 0 {
		return true
	}
	s1, ok1 := sigs[pairKey(w.a1, w.b1)]
	s2, ok2 := sigs[pairKey(w.a2, w.b2)]
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
func bandCheck(ref int, band []int, z int, need *[]Pair, needShard *[]int, shard int) witnessCheck {
	if len(band) >= 2 {
		*need = append(*need, Pair{band[0], band[1]})
		*needShard = append(*needShard, shard)
		return witnessCheck{ref, band[0], band[0], band[1]}
	}
	if z < 0 {
		return witnessCheck{-1, -1, -1, -1}
	}
	*need = append(*need, Pair{band[0], z})
	*needShard = append(*needShard, shard)
	*need = append(*need, Pair{ref, z})
	*needShard = append(*needShard, shard)
	return witnessCheck{band[0], z, ref, z}
}

// DetectGroups discovers the logical homogeneous groups of the
// cluster from timing probes. With a topology attached the leaf
// switches are used as candidate sets and probed in parallel — the
// fabric guarantees the probes are contention-free — needing two jobs
// in total. Without the hint the detector peels one group at a time:
// the lowest unassigned node probes every other unassigned node
// serially, the replies are banded by signature, and witness probes
// decide which band the prober itself belongs to. Both run peel.
func DetectGroups(cfg mpi.Config, opt Options) (*Grouping, Report, error) {
	return detectGroups(cfg, opt, cfg.Cluster.Topo != nil)
}

// detectGroups is DetectGroups with the topology hint taken only when
// hinted is set.
func detectGroups(cfg mpi.Config, opt Options, hinted bool) (*Grouping, Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, Report{}, err
	}
	n := cfg.Cluster.N()
	if n == 0 {
		return nil, Report{}, fmt.Errorf("estimate: empty cluster")
	}
	rep := Report{}
	var groups [][]int
	if hinted {
		groups, err = detectHinted(cfg, opt, cfg.Cluster.Topo.LeafGroups(), &rep)
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

// peel is group detection's one probing procedure, over candidate sets
// whose first member is the set's reference. Run 1: each reference
// probes its set's other members, and the replies are banded by
// signature. Run 2: the bandCheck witness probes, deduplicated against
// run 1, decide which band the reference joins: the first whose check
// passes. A singleton band's witness is the first member of another
// band of its set, which keeps the probes in the set; failing that,
// outside(set), whose probes are serialized (-1 for none). Set i's
// other probes are shard i when sharded (the sets are disjoint
// leaves), serialized otherwise. peel returns each set's bands and the
// index of the band its reference joins, -1 for none.
func peel(cfg mpi.Config, opt Options, sets [][]int, sharded bool, outside func(set int) int, rep *Report) ([][][]int, []int, error) {
	shardOf := func(i int) int {
		if sharded {
			return i
		}
		return -1
	}
	var probes []Pair
	var shard []int
	for i, set := range sets {
		for _, m := range set[1:] {
			probes = append(probes, Pair{set[0], m})
			shard = append(shard, shardOf(i))
		}
	}
	sigs, err := measureProbes(cfg, opt, packRounds(probes, shard), rep)
	if err != nil {
		return nil, nil, err
	}

	bands := make([][][]int, len(sets))
	checks := make([][]witnessCheck, len(sets))
	var need []Pair
	var needShard []int
	for i, set := range sets {
		if len(set) < 2 {
			continue
		}
		ref := set[0]
		bands[i] = bandMembers(set[1:], func(m int) sig { return sigs[pairKey(ref, m)] }, groupTol)
		for bi, band := range bands[i] {
			z, zShard := -1, shardOf(i)
			if len(band) == 1 {
				for obi, ob := range bands[i] {
					if obi != bi {
						z = ob[0]
						break
					}
				}
				if z < 0 {
					z, zShard = outside(i), -1
				}
			}
			checks[i] = append(checks[i], bandCheck(ref, band, z, &need, &needShard, zShard))
		}
	}
	var fresh []Pair
	var freshShard []int
	for i, p := range need {
		if _, done := sigs[pairKey(p.I, p.J)]; !done {
			fresh = append(fresh, p)
			freshShard = append(freshShard, needShard[i])
		}
	}
	more, err := measureProbes(cfg, opt, packRounds(fresh, freshShard), rep)
	if err != nil {
		return nil, nil, err
	}
	// Entry-wise merge: insertion order cannot affect the result.
	//lmovet:commutative
	for k, v := range more {
		sigs[k] = v
	}

	refBand := make([]int, len(sets))
	for i := range sets {
		refBand[i] = -1
		for bi, c := range checks[i] {
			if c.pass(sigs, groupTol) {
				refBand[i] = bi
				break
			}
		}
	}
	return bands, refBand, nil
}

// detectHinted runs the topology-hinted detection: the leaves are
// peel's candidate sets, probed in parallel, and a singleton band
// with no sibling borrows another leaf's first node as its witness.
// Every band becomes a group, the reference's band with the reference.
func detectHinted(cfg mpi.Config, opt Options, leaves [][]int, rep *Report) ([][]int, error) {
	outside := func(li int) int {
		for lj, other := range leaves {
			if lj != li {
				return other[0]
			}
		}
		return -1
	}
	bands, refBand, err := peel(cfg, opt, leaves, true, outside, rep)
	if err != nil {
		return nil, err
	}
	var groups [][]int
	for li, leaf := range leaves {
		if refBand[li] < 0 {
			groups = append(groups, []int{leaf[0]})
		}
		for bi, band := range bands[li] {
			g := append([]int(nil), band...)
			if bi == refBand[li] {
				g = append(g, leaf[0])
				sort.Ints(g)
			}
			groups = append(groups, g)
		}
	}
	return groups, nil
}

// detectBlind peels groups without a topology hint, one candidate set
// at a time: the unassigned nodes. All probes are serialized: with the
// fabric unknown, two concurrent probes could share a trunk and
// contaminate each other. A singleton band with no sibling borrows the
// first assigned node as its witness. The reference's band becomes a
// finished group; the other bands return to the pool and are peeled
// with a reference of their own (their members may span distinct
// distant groups that look alike from here).
func detectBlind(cfg mpi.Config, opt Options, rep *Report) ([][]int, error) {
	n := cfg.Cluster.N()
	unassigned := make([]int, n)
	for i := range unassigned {
		unassigned[i] = i
	}
	var groups [][]int
	var assigned []int
	outside := func(int) int {
		if len(assigned) > 0 {
			return assigned[0]
		}
		return -1
	}
	for len(unassigned) > 0 {
		bands, refBand, err := peel(cfg, opt, [][]int{unassigned}, false, outside, rep)
		if err != nil {
			return nil, err
		}
		group := []int{unassigned[0]}
		if rb := refBand[0]; rb >= 0 {
			group = append(group, bands[0][rb]...)
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

// interBucket is one inter-group link class: with a topology, all
// group pairs whose route shares (class, hop count); without one, one
// bucket per group pair. Up to three representative pairs, each joining
// two groups' first members, are measured and averaged.
type interBucket struct {
	cls     topo.Class
	hops    int
	reps    []Pair
	L, invB float64
}

// LMOGrouped estimates the LMO model of a large cluster through its
// logical groups: DetectGroups partitions the processors, one triplet
// of representatives per group yields the group's C/t and intra-group
// L/β, and inter-group links are measured per link class rather than
// per pair. It runs LMOX's design phase by phase, every round trip
// through one roundTripPlan and every one-to-two experiment through
// oneToTwoPlan into TripletTimes records, and solves the records with
// LMOX's closed forms. The result is expanded to a full per-node model.
// The gather irregularity scan is intentionally omitted: callers
// estimating at this scale opt into the collapsed procedure.
//
// A group of three or more measures the triplet of its first three
// members, every such group in parallel: their triplets stay on their
// own leaf switches. A group too small for a triplet measures, per
// member x, a witness record (x, w0, w1) over a witness pair borrowed
// from another group, serially: x initiates rotation 0, so both of its
// branches cross the fabric symmetrically, the critical path provably
// runs through the designated witness w1, and eqs (8)/(11) apply per
// member. A borrowed-helper triplet would instead put the far helper on
// a non-designated branch, where the one-to-two degenerates into a
// plain round trip and the solve absorbs fabric latency into C. The
// intra link of a two-member group follows from its round trip once the
// members' C/t are known, and each inter-group bucket's from its
// representatives' once the groups' are.
func LMOGrouped(cfg mpi.Config, opt Options) (*models.LMOX, *Grouping, Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, nil, Report{}, err
	}
	n := cfg.Cluster.N()
	if n < 3 {
		return nil, nil, Report{}, fmt.Errorf("estimate: grouped LMO estimation needs at least 3 processors, have %d", n)
	}
	g, rep, err := DetectGroups(cfg, opt)
	if err != nil {
		return nil, g, rep, err
	}

	// Plan the per-group records, group gi's from tts[rec[gi]] on: a
	// big group's triplet of its first three members, ascending as the
	// triplet design requires, or a small group's witness record per
	// member, whose one rotation is r0. The witness records' round trips
	// and a two-member group's intra pair are measured one at a time.
	ngr := len(g.Groups)
	r0 := rotations[0]
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
	tts := make([]TripletTimes, 0, ngr)
	rec := make([]int, ngr)
	triplets := make([]int, 0, ngr) // the big groups' records
	var witnesses []int             // the witness records
	var serialRTs []Pair            // the round trips measured one at a time
	for gi, members := range g.Groups {
		rec[gi] = len(tts)
		if len(members) >= 3 {
			triplets = append(triplets, len(tts))
			tts = append(tts, TripletTimes{Members: [3]int(members[:3]), M: opt.MsgSize})
			continue
		}
		w := pickWitness(gi)
		for _, x := range members {
			tt := TripletTimes{Members: [3]int{x, w[0], w[1]}, M: opt.MsgSize}
			serialRTs = append(serialRTs, tt.pair(r0.rt))
			witnesses = append(witnesses, len(tts))
			tts = append(tts, tt)
		}
		if len(members) == 2 {
			serialRTs = append(serialRTs, Pair{members[0], members[1]})
		}
	}

	// Plan the inter-group buckets.
	var buckets []interBucket
	bucketOf := make([]int, ngr*ngr)
	topol := cfg.Cluster.Topo
	// findBucket returns the index of the bucket of groups gi and gj,
	// opening a bucket when none fits.
	findBucket := func(gi, gj int) int {
		var b interBucket
		if topol != nil {
			rt := topol.Route(g.Groups[gi][0], g.Groups[gj][0])
			b.cls, b.hops = rt.MaxClass, len(rt.Hops)
			for bi := range buckets {
				if buckets[bi].cls == b.cls && buckets[bi].hops == b.hops {
					return bi
				}
			}
		}
		buckets = append(buckets, b)
		return len(buckets) - 1
	}
	for gi := 0; gi < ngr; gi++ {
		for gj := gi + 1; gj < ngr; gj++ {
			bi := findBucket(gi, gj)
			if b := &buckets[bi]; len(b.reps) < 3 {
				b.reps = append(b.reps, Pair{g.Groups[gi][0], g.Groups[gj][0]})
			}
			bucketOf[gi*ngr+gj] = bi
		}
	}
	serialRTs = slices.Grow(serialRTs, 3*len(buckets))
	for _, b := range buckets {
		for _, p := range b.reps {
			// The witness fallback may have planned it as a witness pair.
			if !slices.Contains(serialRTs, p) {
				serialRTs = append(serialRTs, p)
			}
		}
	}

	// One job measures everything, phase by phase. Phase 1: the round
	// trips at both sizes, the triplets' in parallel, then the rest one
	// at a time (they may cross the fabric). Phase 2: the one-to-two
	// experiments at both sizes, the triplets' three rotations in
	// parallel, then each witness record's rotation 0 on its own.
	var pairRounds [][]Pair
	var tripletRound [][]int
	if len(triplets) > 0 {
		for p := range tripletPairs {
			rd := make([]Pair, len(triplets))
			for x, ti := range triplets {
				rd[x] = tts[ti].pair(p)
			}
			pairRounds = append(pairRounds, rd)
		}
		tripletRound = [][]int{triplets}
	}
	pairRounds = append(pairRounds, serialized(serialRTs)...)
	npairs := 3*len(triplets) + len(serialRTs)
	rt := [2]map[Pair]float64{make(map[Pair]float64, npairs), make(map[Pair]float64, npairs)}
	plan := roundTripPlan(pairRounds, []int{0, opt.MsgSize}, func(p Pair, k int, mean float64) {
		rt[k][p] = mean
	})
	plan = append(plan, oneToTwoPlan(tts, tripletRound, rotations[:], opt.MsgSize)...)
	plan = append(plan, oneToTwoPlan(tts, serialized(witnesses), []rotation{r0}, opt.MsgSize)...)
	res, err := mpi.Run(opt.withObs(cfg), func(r *mpi.Rank) {
		runRounds(r, opt.Mpib, plan, &rep)
	})
	if err != nil {
		return nil, g, rep, err
	}
	rep.Cost += res.Duration

	// Solve each group: a big group's C/t average its triplet's three
	// members', its intra-group link the triplet's three links; a small
	// group's C/t average its members' rotation-0 solves, and a
	// two-member group's intra link follows from the members' round
	// trip.
	type groupEst struct{ c, t, intraL, intraInvB float64 }
	est := make([]groupEst, ngr)
	mf := float64(opt.MsgSize)
	for ti := range tts {
		tts[ti].roundTrips(rt)
	}
	for gi, members := range g.Groups {
		e := &est[gi]
		recs := tts[rec[gi]:]
		if len(members) >= 3 {
			sol := SolveTriplet(recs[0])
			for x := range sol.C {
				e.c += sol.C[x]
				e.t += sol.T[x]
			}
			for p := range sol.L {
				e.intraL += sol.L[p]
				e.intraInvB += 1 / sol.Beta[p] // Inf → 0, naturally
			}
			e.c /= 3
			e.t /= 3
			e.intraL /= 3
			e.intraInvB /= 3
			continue
		}
		var c, t [2]float64
		for xi, tt := range recs[:len(members)] {
			c[xi], t[xi] = processorCT(tt.OneToTwo0[r0.init], tt.OneToTwoM[r0.init], tt.RT0[r0.rt], tt.RTM[r0.rt], mf)
			e.c += c[xi]
			e.t += t[xi]
		}
		e.c /= float64(len(members))
		e.t /= float64(len(members))
		if len(members) == 2 {
			p := Pair{members[0], members[1]}
			l, ib := linkLInvB(rt[0][p], rt[1][p], c[0], c[1], t[0], t[1], mf)
			if ib < 0 {
				ib = 0
			}
			e.intraL, e.intraInvB = l, ib
		}
	}

	// Solve each inter-group bucket with the groups' C/t known.
	for bi := range buckets {
		b := &buckets[bi]
		for _, p := range b.reps {
			ga, gb := est[g.Of[p.I]], est[g.Of[p.J]]
			l, ib := linkLInvB(rt[0][p], rt[1][p], ga.c, gb.c, ga.t, gb.t, mf)
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
	// A link's parameters depend only on its endpoints' groups, the same
	// either way round: fill the rows of each group's first member, and
	// copy them to the group's other members.
	for gi, members := range g.Groups {
		first := members[0]
		rowL, rowB := model.L[first], model.Beta[first]
		for j := 0; j < n; j++ {
			if j == first {
				continue
			}
			gj := g.Of[j]
			l, ib := est[gi].intraL, est[gi].intraInvB
			if gi != gj {
				b := buckets[bucketOf[min(gi, gj)*ngr+max(gi, gj)]]
				l, ib = b.L, b.invB
			}
			rowL[j], rowB[j] = l, rate(ib)
		}
		// Member i's row is the first member's with the zero diagonal
		// and the intra-group link at first and i swapped.
		for _, i := range members[1:] {
			copy(model.L[i], rowL)
			copy(model.Beta[i], rowB)
			model.L[i][first], model.L[i][i] = rowL[i], 0
			model.Beta[i][first], model.Beta[i][i] = rowB[i], 0
		}
	}
	return model, g, rep, nil
}
