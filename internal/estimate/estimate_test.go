package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/obs"
)

func homConfig(n int) mpi.Config {
	return mpi.Config{
		Cluster: cluster.Homogeneous(n,
			cluster.NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
			cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8}),
		Profile: cluster.Ideal(),
		Seed:    1,
	}
}

func hetConfig() mpi.Config {
	return mpi.Config{Cluster: cluster.Table1(), Profile: cluster.Ideal(), Seed: 1}
}

func relClose(got, want, tol float64) bool {
	if want == 0 {
		return math.Abs(got) <= tol
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

func TestHetHockneyRecoversGroundTruth(t *testing.T) {
	cfg := homConfig(4)
	h, rep, err := HetHockney(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth per pair: α = 2C + L = 140µs; β = 2t + 1/β = 18ns/B.
	wantAlpha := 140e-6
	wantBeta := 2*4e-9 + 1e-8
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if !relClose(h.Alpha[i][j], wantAlpha, 0.02) {
				t.Fatalf("α[%d][%d] = %v, want ≈%v", i, j, h.Alpha[i][j], wantAlpha)
			}
			if !relClose(h.Beta[i][j], wantBeta, 0.02) {
				t.Fatalf("β[%d][%d] = %v, want ≈%v", i, j, h.Beta[i][j], wantBeta)
			}
		}
	}
	if rep.Experiments != 4*6 {
		t.Fatalf("experiments = %d, want 24 (4 sizes x 6 pairs)", rep.Experiments)
	}
	if rep.Cost <= 0 || rep.Repetitions == 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestHetHockneyHeterogeneousPairsDiffer(t *testing.T) {
	h, _, err := HetHockney(hetConfig(), Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	// The Celeron node (index 12, type 6) must show a larger α than the
	// fastest pair.
	cl := cluster.Table1()
	slow, fast := -1, -1
	for i, nd := range cl.Nodes {
		if nd.C == 95*time.Microsecond {
			slow = i
		}
		if nd.C == 30*time.Microsecond && fast == -1 {
			fast = i
		}
	}
	if slow < 0 || fast < 0 {
		t.Fatal("Table1 layout changed")
	}
	other := (slow + 1) % cl.N()
	if other == fast {
		other = (slow + 2) % cl.N()
	}
	if h.Alpha[slow][other] <= h.Alpha[fast][other] {
		t.Fatalf("α involving Celeron (%v) should exceed fast pair (%v)",
			h.Alpha[slow][other], h.Alpha[fast][other])
	}
}

// The paper's §IV result: parallel estimation gives the same parameters
// at a fraction of the cost (5s vs 16s on the real cluster).
func TestParallelEstimationSameParamsLowerCost(t *testing.T) {
	cfg := hetConfig()
	serial, repS, err := HetHockney(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, repP, err := HetHockney(cfg, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Cluster.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if !relClose(parallel.Alpha[i][j], serial.Alpha[i][j], 0.02) {
				t.Fatalf("parallel α[%d][%d]=%v differs from serial %v",
					i, j, parallel.Alpha[i][j], serial.Alpha[i][j])
			}
			if !relClose(parallel.Beta[i][j], serial.Beta[i][j], 0.05) {
				t.Fatalf("parallel β[%d][%d]=%v differs from serial %v",
					i, j, parallel.Beta[i][j], serial.Beta[i][j])
			}
		}
	}
	speedup := float64(repS.Cost) / float64(repP.Cost)
	if speedup < 2 {
		t.Fatalf("parallel estimation speedup = %.2f, want ≥ 2 (paper: 16s/5s ≈ 3.2)", speedup)
	}
	t.Logf("estimation cost: serial %v, parallel %v (speedup %.1f×)", repS.Cost, repP.Cost, speedup)
}

// TestKernelHandoffsOnTable1 pins the event kernel's hand-offs, the
// resumes that switch coroutines (every resume but a process popping
// its own event), next to its resumes, for two estimations on Table I
// under LAM at seed 1 with the parallel schedule. Both counts depend
// only on the event stream.
func TestKernelHandoffsOnTable1(t *testing.T) {
	cfg := mpi.Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 1}
	for _, c := range []struct {
		name              string
		run               func(Options) error
		handoffs, resumes int64
	}{
		{"HetHockney", func(o Options) error { _, _, err := HetHockney(cfg, o); return err }, 8600, 8672},
		{"LMOX", func(o Options) error { _, _, err := LMOX(cfg, o); return err }, 110838, 114934},
	} {
		tr := obs.NewTrace()
		if err := c.run(Options{Parallel: true, Obs: tr}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h, r := tr.Counter("vtime.handoffs").Value(), tr.Counter("vtime.resumes").Value()
		if h != c.handoffs || r != c.resumes {
			t.Errorf("%s: %d hand-offs of %d resumes, want %d of %d", c.name, h, r, c.handoffs, c.resumes)
		}
	}
}

// TestCleanExperimentsStopAtTwoRepetitions pins the repetition rule's
// floor at the estimation level: on Table I under the Ideal, LAM and
// MPICH profiles, every experiment of het-Hockney, LogP/LogGP, PLogP
// and LMOX runs exactly two repetitions, with no retry and no round
// that misses its CI target. A clean simulated experiment takes the
// same time at every repetition, and two equal samples have a
// zero-width confidence interval.
func TestCleanExperimentsStopAtTwoRepetitions(t *testing.T) {
	for _, prof := range []*cluster.TCPProfile{cluster.Ideal(), cluster.LAM(), cluster.MPICH()} {
		cfg := mpi.Config{Cluster: cluster.Table1(), Profile: prof, Seed: 1}
		opt := Options{Parallel: true}
		for _, c := range []struct {
			name string
			run  func() (Report, error)
		}{
			{"HetHockney", func() (Report, error) { _, rep, err := HetHockney(cfg, opt); return rep, err }},
			{"LogPLogGP", func() (Report, error) { _, _, rep, err := LogPLogGP(cfg, opt); return rep, err }},
			{"PLogP", func() (Report, error) { _, rep, err := PLogP(cfg, opt); return rep, err }},
			{"LMOX", func() (Report, error) { _, rep, err := LMOX(cfg, opt); return rep, err }},
		} {
			rep, err := c.run()
			if err != nil {
				t.Fatalf("%s under %s: %v", c.name, prof.Name, err)
			}
			if rep.Experiments == 0 || rep.Repetitions != 2*rep.Experiments || rep.Retries != 0 || rep.NonConverged != 0 {
				t.Errorf("%s under %s: %d experiments, %d repetitions, %d retries, %d non-converged; want 2 repetitions each, no retry, all converged",
					c.name, prof.Name, rep.Experiments, rep.Repetitions, rep.Retries, rep.NonConverged)
			}
		}
	}
}

func TestHomHockneyFitsLine(t *testing.T) {
	cfg := homConfig(4)
	h, _, err := HomHockney(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(h.Alpha, 140e-6, 0.05) {
		t.Fatalf("α = %v, want ≈140µs", h.Alpha)
	}
	if !relClose(h.Beta, 1.8e-8, 0.05) {
		t.Fatalf("β = %v, want ≈18ns/B", h.Beta)
	}
}

func TestLogPLogGPEstimation(t *testing.T) {
	cfg := homConfig(4)
	logp, loggp, rep, err := LogPLogGP(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// o should approximate the 0-byte processor cost C = 50µs.
	if !relClose(logp.O, 50e-6, 0.1) {
		t.Fatalf("o = %v, want ≈50µs", logp.O)
	}
	// Gap per byte should be near the bottleneck per-byte cost:
	// max(t, 1/β) = 1e-8 s/B.
	if loggp.BigG <= 0 || loggp.BigG > 3e-8 {
		t.Fatalf("G = %v, want ≈1e-8", loggp.BigG)
	}
	if logp.L < 0 || loggp.L < 0 {
		t.Fatal("negative latency")
	}
	// n=4 → pairs (0,1) and (2,3), five experiments each.
	if rep.Experiments != 10 {
		t.Fatalf("experiments = %d, want 10", rep.Experiments)
	}
}

func TestPLogPEstimation(t *testing.T) {
	cfg := homConfig(4)
	p, rep, err := PLogP(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.G.NumKnots() < 6 {
		t.Fatalf("g(M) has %d knots, want ≥ 6", p.G.NumKnots())
	}
	// g is increasing in M and the asymptotic slope approximates the
	// bottleneck per-byte cost.
	g1, g64 := p.Gap(1<<10), p.Gap(64<<10)
	if g64 <= g1 {
		t.Fatal("g(M) should grow with M")
	}
	slope := (p.Gap(128<<10) - p.Gap(64<<10)) / float64(64<<10)
	if !relClose(slope, 1e-8, 0.25) {
		t.Fatalf("asymptotic g slope = %v, want ≈1e-8", slope)
	}
	// Overheads approximate the sender/receiver CPU cost C + M·t.
	if !relClose(p.SendOverhead(0), 50e-6, 0.1) {
		t.Fatalf("o_s(0) = %v, want ≈50µs", p.SendOverhead(0))
	}
	if rep.Experiments < 19 {
		t.Fatalf("experiments = %d, want ≥ 19 (6 sizes × 3 + RTT)", rep.Experiments)
	}
}

// The centerpiece: the LMO estimation must recover the simulator's
// ground-truth separation of processor and network contributions,
// exactly on a homogeneous cluster.
func TestLMOXRecoversGroundTruthHomogeneous(t *testing.T) {
	cfg := homConfig(5)
	m, rep, err := LMOX(cfg, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	for i := 0; i < 5; i++ {
		if !relClose(m.C[i], 50e-6, tol) {
			t.Fatalf("C[%d] = %v, want 50µs", i, m.C[i])
		}
		if !relClose(m.T[i], 4e-9, tol) {
			t.Fatalf("t[%d] = %v, want 4ns/B", i, m.T[i])
		}
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			if !relClose(m.L[i][j], 40e-6, tol) {
				t.Fatalf("L[%d][%d] = %v, want 40µs", i, j, m.L[i][j])
			}
			if !relClose(m.Beta[i][j], 1e8, tol) {
				t.Fatalf("β[%d][%d] = %v, want 1e8", i, j, m.Beta[i][j])
			}
		}
	}
	// C(5,2)=10 pairs ×2 + 3·C(5,3)=30 one-to-two ×2.
	if rep.Experiments != 2*10+2*30 {
		t.Fatalf("experiments = %d, want 80", rep.Experiments)
	}
}

// ascendingCluster draws an n-node single-switch cluster whose C and t
// ascend with the node index, so that every one-to-two experiment's
// designated destination, the higher of the initiator's two partners,
// lies on its critical path: C from 25 µs and t from 2 ns/B, each node
// up to 10 µs and 1 ns/B above the one before, and per-pair symmetric
// links with L in 40–50 µs and β in 85–100 MB/s, too close to move the
// critical path off the designated branch.
func ascendingCluster(rng *rand.Rand, n int) *cluster.Cluster {
	cl := cluster.Homogeneous(n, cluster.NodeSpec{}, cluster.LinkSpec{})
	c, tb := 25*time.Microsecond, 2e-9
	for i := range cl.Nodes {
		c += time.Duration(rng.Intn(10_000))
		tb += 1e-9 * rng.Float64()
		cl.Nodes[i].C, cl.Nodes[i].T = c, tb
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := cluster.LinkSpec{L: 40*time.Microsecond + time.Duration(rng.Intn(10_000)), Beta: 8.5e7 + 1.5e7*rng.Float64()}
			cl.Links[i][j], cl.Links[j][i] = l, l
		}
	}
	return cl
}

// The ground-truth check of eqs (8) and (11) end to end: on seeded
// ascending clusters of 3 to 16 nodes, under Ideal, LAM and MPICH and
// either schedule, LMOX recovers every C_i, t_i, L_ij and β_ij of the
// simulator's ground truth. What remains is the simulator's rounding
// of M·t to whole nanoseconds.
func TestLMOXRecoversGroundTruthAscending(t *testing.T) {
	const tol = 1e-4
	profiles := []*cluster.TCPProfile{cluster.Ideal(), cluster.LAM(), cluster.MPICH()}
	var worst [4]float64 // C, t, L, β
	schedules := map[bool]int{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(14)
		cl := ascendingCluster(rng, n)
		for _, prof := range profiles {
			parallel := rng.Intn(2) == 0
			schedules[parallel]++
			m, _, err := LMOX(mpi.Config{Cluster: cl, Profile: prof, Seed: seed}, Options{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			check := func(kind int, name string, got, want float64) {
				t.Helper()
				rel := math.Abs(got-want) / want
				worst[kind] = math.Max(worst[kind], rel)
				if !(rel <= tol) {
					t.Fatalf("seed %d, %d nodes, %s, parallel %v: %s = %.6g, ground truth %.6g (%.2g relative)",
						seed, n, prof.Name, parallel, name, got, want, rel)
				}
			}
			for i, nd := range cl.Nodes {
				check(0, fmt.Sprintf("C[%d]", i), m.C[i], nd.C.Seconds())
				check(1, fmt.Sprintf("t[%d]", i), m.T[i], nd.T)
				for j := i + 1; j < n; j++ {
					check(2, fmt.Sprintf("L[%d][%d]", i, j), m.L[i][j], cl.Links[i][j].L.Seconds())
					check(3, fmt.Sprintf("β[%d][%d]", i, j), m.Beta[i][j], cl.Links[i][j].Beta)
				}
			}
		}
	}
	if schedules[false] == 0 || schedules[true] == 0 {
		t.Fatalf("schedules drawn: %v; want both", schedules)
	}
	t.Logf("worst relative errors: C %.2g, t %.2g, L %.2g, β %.2g", worst[0], worst[1], worst[2], worst[3])
}

func TestLMOXSeparatesHeterogeneousProcessors(t *testing.T) {
	cfg := hetConfig()
	m, _, err := LMOX(cfg, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := cfg.Cluster
	// Rank processors by estimated C and by ground-truth C: the Celeron
	// must be the slowest in both, the SC1425s the fastest.
	slowest, fastest := 0, 0
	for i := range m.C {
		if m.C[i] > m.C[slowest] {
			slowest = i
		}
		if m.C[i] < m.C[fastest] {
			fastest = i
		}
	}
	if cl.Nodes[slowest].C != 95*time.Microsecond {
		t.Fatalf("estimated slowest node %d (%v); want the Celeron", slowest, cl.Nodes[slowest].Model)
	}
	if cl.Nodes[fastest].C != 30*time.Microsecond {
		t.Fatalf("estimated fastest node %d (%v); want an SC1425", fastest, cl.Nodes[fastest].Model)
	}
	// Per-processor estimates track ground truth within 20%.
	for i, nd := range cl.Nodes {
		if !relClose(m.C[i], nd.C.Seconds(), 0.2) {
			t.Fatalf("C[%d] = %v, ground truth %v", i, m.C[i], nd.C.Seconds())
		}
	}
}

// TestLMOXPhaseSpansTileTheRun pins the timing of LMOX's rank-0 phase
// spans, serial and parallel: phase:round-trips starts at 0 and ends
// where phase:one-to-two starts, and phase:one-to-two ends at the
// estimation's cost.
func TestLMOXPhaseSpansTileTheRun(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		tr := obs.NewTrace()
		cfg := mpi.Config{Cluster: cluster.Table1().Prefix(5), Profile: cluster.LAM(), Seed: 7}
		_, rep, err := LMOX(cfg, Options{Parallel: parallel, Obs: tr})
		if err != nil {
			t.Fatal(err)
		}
		phases := map[string]obs.Span{}
		for _, sp := range tr.Spans() {
			if sp.Cat == obs.CatEstimate && strings.HasPrefix(sp.Name, "phase:") {
				phases[sp.Name] = sp
			}
		}
		rt, ott := phases["phase:round-trips"], phases["phase:one-to-two"]
		if len(phases) != 2 || rt.Start != 0 || rt.End <= 0 || rt.End != ott.Start || ott.End != rep.Cost {
			t.Errorf("parallel=%v: phases %+v; want round-trips from 0 to one-to-two's start, one-to-two to the cost %v",
				parallel, phases, rep.Cost)
		}
	}
}

func TestLMOXNeedsThreeProcessors(t *testing.T) {
	if _, _, err := LMOX(homConfig(2), Options{}); err == nil {
		t.Fatal("n=2 should be rejected")
	}
}

// synthTriplet returns the exact experiment times of a triplet on
// processors 0, 1, 2 with the given parameters, processors' by member
// slot and links' by pair slot. The one-to-two times follow the pinned
// experiment design: the critical path runs through the designated
// destination, the higher of the initiator's two partners.
func synthTriplet(C, T, L, invB [3]float64, m int) TripletTimes {
	tt := TripletTimes{Members: [3]int{0, 1, 2}, M: m}
	mf := float64(m)
	slot := map[[2]int]int{}
	for p, pr := range tripletPairs {
		slot[pr] = p
		tt.RT0[p] = 2 * (C[pr[0]] + L[p] + C[pr[1]])
		tt.RTM[p] = tt.RT0[p] + 2*mf*(T[pr[0]]+invB[p]+T[pr[1]])
	}
	for x, d := range [3]int{2, 2, 1} {
		pd := slot[[2]int{min(x, d), max(x, d)}]
		tt.OneToTwo0[x] = 2 * (2*C[x] + L[pd] + C[d])
		tt.OneToTwoM[x] = 2*(2*C[x]+mf*T[x]) + 2*(L[pd]+C[d]) + mf*(invB[pd]+T[d])
	}
	return tt
}

// knownTriplet is a triplet of distinct processors and links, with
// t = 3e-9 everywhere and β = 1e8 on every link.
func knownTriplet() (C, L [3]float64, tt TripletTimes) {
	C = [3]float64{5e-5, 7e-5, 4e-5}
	L = [3]float64{4e-5, 3e-5, 5e-5} // pairs 0–1, 0–2, 1–2
	return C, L, synthTriplet(C, [3]float64{3e-9, 3e-9, 3e-9}, L, [3]float64{1e-8, 1e-8, 1e-8}, 1<<15)
}

func TestSolveTripletRecoversKnownTriplet(t *testing.T) {
	// Synthesize exact experiment times from known parameters and check
	// the closed forms recover them.
	C, L, tt := knownTriplet()
	closed := SolveTriplet(tt)
	for x, want := range C {
		if !relClose(closed.C[x], want, 1e-9) {
			t.Fatalf("C[%d] = %v, want %v", x, closed.C[x], want)
		}
	}
	for p, want := range L {
		if !relClose(closed.L[p], want, 1e-9) {
			t.Fatalf("L[%v] = %v, want %v", tripletPairs[p], closed.L[p], want)
		}
	}
	for x, tv := range closed.T {
		if !relClose(tv, 3e-9, 1e-9) {
			t.Fatalf("t[%d] = %v, want 3e-9", x, tv)
		}
	}
	for p, b := range closed.Beta {
		if !relClose(b, 1e8, 1e-9) {
			t.Fatalf("β[%v] = %v, want 1e8", tripletPairs[p], b)
		}
	}
}

// The solver works on fixed-size records: a call allocates nothing.
func TestSolveTripletAllocatesNothing(t *testing.T) {
	_, _, tt := knownTriplet()
	var sol TripletSolution
	if a := testing.AllocsPerRun(100, func() { sol = SolveTriplet(tt) }); a != 0 {
		t.Fatalf("SolveTriplet allocates %v objects per call, want 0", a)
	}
	if sol.C[0] == 0 {
		t.Fatal("SolveTriplet returned no solution")
	}
}

// The rotation table is the experiment design the closed forms assume:
// rotation r is initiated by member slot r, its destinations are the
// other two members with the higher one designated (sent to last and
// collected first by oneToTwoExp), and rt names their round trip.
func TestRotationsMatchTheDesign(t *testing.T) {
	p := [3]int{3, 5, 9}
	for r, rot := range rotations {
		if rot.init != r || rot.first == r || rot.desig == r || rot.first >= rot.desig {
			t.Fatalf("rotation %d = %+v: want initiator %d and ascending destinations", r, rot, r)
		}
		if pr := tripletPairs[rot.rt]; pr != [2]int{min(r, rot.desig), max(r, rot.desig)} {
			t.Fatalf("rotation %d: round trip slot %d joins %v, not the initiator and %d", r, rot.rt, pr, rot.desig)
		}
		e := rot.exp(p, 1<<10, 7)
		if e.Initiator != p[r] || e.Peers != [2]int{p[rot.first], p[rot.desig]} {
			t.Fatalf("rotation %d builds %d→%v, want %d→[%d %d]", r, e.Initiator, e.Peers, p[r], p[rot.first], p[rot.desig])
		}
	}
}

func TestDetectIrregularityLAM(t *testing.T) {
	cfg := homConfig(8)
	cfg.Profile = cluster.LAM()
	cfg.Seed = 42
	sizes := DefaultScanSizes()
	g, rep, err := DetectGatherIrregularity(cfg, 0, sizes, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Valid() {
		t.Fatal("LAM profile should show an irregular region")
	}
	// Ground truth: M1 = 4KB, M2 = 65KB. Grid resolution allows
	// ±1 grid step.
	if g.M1 < 2<<10 || g.M1 > 8<<10 {
		t.Fatalf("M1 = %d, want ≈4KB", g.M1)
	}
	if g.M2 < 56<<10 || g.M2 > 80<<10 {
		t.Fatalf("M2 = %d, want ≈65KB", g.M2)
	}
	// Escalation magnitudes should cluster near 0.2s/0.25s.
	if len(g.EscModes) == 0 {
		t.Fatal("no escalation modes found")
	}
	top := g.EscModes[0].Value
	if top < 0.15 || top > 0.3 {
		t.Fatalf("dominant escalation %v, want ≈0.2–0.25s", top)
	}
	if g.ProbHigh <= g.ProbLow {
		t.Fatalf("escalation probability should grow across the region: %v → %v", g.ProbLow, g.ProbHigh)
	}
	if rep.Experiments != len(sizes) {
		t.Fatalf("experiments = %d", rep.Experiments)
	}
}

func TestDetectIrregularityMPICHDiffers(t *testing.T) {
	cfg := homConfig(8)
	cfg.Profile = cluster.MPICH()
	cfg.Seed = 42
	g, _, err := DetectGatherIrregularity(cfg, 0, DefaultScanSizes(), 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Valid() {
		t.Fatal("MPICH profile should show an irregular region")
	}
	// Ground truth: M1 = 3KB, M2 = 125KB.
	if g.M1 < 1<<10 || g.M1 > 6<<10 {
		t.Fatalf("M1 = %d, want ≈3KB", g.M1)
	}
	if g.M2 < 110<<10 || g.M2 > 140<<10 {
		t.Fatalf("M2 = %d, want ≈125KB", g.M2)
	}
}

func TestDetectIrregularityIdealIsClean(t *testing.T) {
	cfg := homConfig(8)
	g, _, err := DetectGatherIrregularity(cfg, 0, []int{1 << 10, 16 << 10, 64 << 10}, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Valid() {
		t.Fatalf("ideal network reported irregularity: %+v", g)
	}
}

func TestAnalyzeGatherScanEdgeCases(t *testing.T) {
	if AnalyzeGatherScan(GatherScan{}).Valid() {
		t.Fatal("empty scan should be invalid")
	}
	// Escalations at the very first and very last size: thresholds are
	// extrapolated outward.
	scan := GatherScan{
		Sizes: []int{1000, 2000},
		Samples: [][]float64{
			{0.01, 0.01, 0.25},
			{0.01, 0.26, 0.01},
		},
	}
	g := AnalyzeGatherScan(scan)
	if !g.Valid() {
		t.Fatal("should detect region")
	}
	if g.M1 != 500 || g.M2 != 4000 {
		t.Fatalf("extrapolated thresholds = %d/%d", g.M1, g.M2)
	}
}

func TestScanGatherUsesFixedReps(t *testing.T) {
	cfg := homConfig(4)
	scan, _, err := ScanGather(cfg, 0, []int{1 << 10}, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Samples[0]) != 7 {
		t.Fatalf("samples = %d, want 7", len(scan.Samples[0]))
	}
}

// Guard: a round whose experiment has a custom sample pointer reports
// the sub-interval, not the whole body, and each round is counted once,
// by the rank that ends it.
func TestCustomSampleExp(t *testing.T) {
	cfg := homConfig(2)
	var whole, sub float64
	var rep Report
	plan := []round{
		{[]Exp{recvOverheadExp(0, 1, 1000, logpWait, 0)}, func(s []RoundSummary) { sub = s[0].Mean }},
		{[]Exp{roundtripExp(0, 1, 1000, 1000, 1)}, func(s []RoundSummary) { whole = s[0].Mean }},
	}
	_, err := mpi.Run(cfg, func(r *mpi.Rank) {
		runRounds(r, mpib.Options{MinReps: 3, MaxReps: 3}, plan, &rep)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sub <= 0 || sub >= whole {
		t.Fatalf("recv overhead %v should be positive and below the round-trip %v", sub, whole)
	}
	if rep.Experiments != 2 || rep.Repetitions != 6 {
		t.Fatalf("report counts %d experiments and %d repetitions, want 2 and 6", rep.Experiments, rep.Repetitions)
	}
}

// The original five-parameter model, solved over LMOX's records, must
// fold half the network latency into each processor constant (the
// conflation the paper criticizes), while the extended model separates
// it. A report without LMOX's records has nothing to solve.
func TestLMOOriginalConflatesLatency(t *testing.T) {
	cfg := homConfig(5) // C = 50µs, L = 40µs ground truth
	ext, rep, err := LMOX(cfg, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := LMOOriginal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := LMOOriginal(Report{}); err == nil {
		t.Fatalf("solved a report without records: %+v", m)
	}
	// Expect C ≈ 50µs + L/2 = 70µs for every processor.
	for i := 0; i < 5; i++ {
		if !relClose(orig.C()[i], 70e-6, 0.1) {
			t.Fatalf("orig C[%d] = %v, want ≈70µs (true C + L/2)", i, orig.C()[i])
		}
	}
	// The extension separates: C back to ≈50µs, L ≈40µs.
	if !relClose(ext.C[0], 50e-6, 0.1) || !relClose(ext.L[0][1], 40e-6, 0.3) {
		t.Fatalf("extended C=%v L=%v", ext.C[0], ext.L[0][1])
	}
	// Both models must still predict point-to-point consistently.
	p2pOrig := orig.P2P(0, 1, 32<<10)
	p2pExt := ext.P2P(0, 1, 32<<10)
	if !relClose(p2pOrig, p2pExt, 0.1) {
		t.Fatalf("p2p: orig %v vs ext %v", p2pOrig, p2pExt)
	}
}

// On a heterogeneous cluster the conflation distorts per-processor
// constants; the extension's separation must track ground truth better.
func TestLMOOriginalVsExtendedOnHeterogeneous(t *testing.T) {
	cfg := hetConfig()
	ext, rep, err := LMOX(cfg, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := LMOOriginal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var errOrig, errExt float64
	for i, nd := range cfg.Cluster.Nodes {
		truth := nd.C.Seconds()
		errOrig += math.Abs(orig.C()[i]-truth) / truth
		errExt += math.Abs(ext.C[i]-truth) / truth
	}
	if errExt >= errOrig {
		t.Fatalf("extended C error (%v) should beat original (%v)", errExt, errOrig)
	}
}

// Sampled triplet coverage: a fraction of the one-to-two experiments
// must still recover the processor parameters, at a fraction of the
// cost — the §IV runtime-estimation trade-off.
func TestLMOXSampledCoverage(t *testing.T) {
	cfg := hetConfig()
	full, repFull, err := LMOX(cfg, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	sampled, repSamp, err := LMOX(cfg, Options{Parallel: true, TripletCoverage: 4})
	if err != nil {
		t.Fatal(err)
	}
	if repSamp.Experiments >= repFull.Experiments/3 {
		t.Fatalf("sampling barely reduced experiments: %d vs %d", repSamp.Experiments, repFull.Experiments)
	}
	if repSamp.Cost >= repFull.Cost {
		t.Fatalf("sampling did not reduce cost: %v vs %v", repSamp.Cost, repFull.Cost)
	}
	for i, nd := range cfg.Cluster.Nodes {
		if !relClose(sampled.C[i], nd.C.Seconds(), 0.25) {
			t.Fatalf("sampled C[%d] = %v, ground truth %v", i, sampled.C[i], nd.C.Seconds())
		}
	}
	// Links still come from the complete round-trip sweep.
	if !relClose(sampled.L[0][1], full.L[0][1], 0.25) {
		t.Fatalf("sampled L = %v vs full %v", sampled.L[0][1], full.L[0][1])
	}
}

// Property: for random ground-truth parameters, synthesizing exact
// experiment times and solving recovers the parameters exactly — the
// closed forms invert the experiment model.
func TestSolveTripletPropertyExactInversion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var C, T, L, B, invB [3]float64
		for x := range C {
			C[x] = 1e-5 + rng.Float64()*2e-4
			T[x] = 1e-9 + rng.Float64()*2e-8
		}
		for p := range L {
			L[p] = 1e-5 + rng.Float64()*2e-4
			B[p] = 1e7 + rng.Float64()*2e8
			invB[p] = 1 / B[p]
		}
		sol := SolveTriplet(synthTriplet(C, T, L, invB, 1<<(12+rng.Intn(8))))
		for x := range C {
			if !relClose(sol.C[x], C[x], 1e-9) || !relClose(sol.T[x], T[x], 1e-6) {
				return false
			}
		}
		for p := range L {
			if !relClose(sol.L[p], L[p], 1e-9) || !relClose(sol.Beta[p], B[p], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The PLogP adaptive refinement must react to the TCP leap: under the
// LAM profile g(M) jumps at 64 KB, the linear-extrapolation check
// fails there, and midpoints get inserted around the discontinuity.
func TestPLogPAdaptiveRefinementAroundLeap(t *testing.T) {
	ideal := homConfig(4)
	pIdeal, _, err := PLogP(ideal, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lam := homConfig(4)
	lam.Profile = cluster.LAM()
	pLam, _, err := PLogP(lam, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pLam.G.NumKnots() <= pIdeal.G.NumKnots() {
		t.Fatalf("leap should trigger refinement: LAM %d knots vs ideal %d",
			pLam.G.NumKnots(), pIdeal.G.NumKnots())
	}
	// And the refined g(M) must actually capture the jump: g just above
	// the leap exceeds the linear extrapolation from below.
	gBelow := pLam.Gap(60 << 10)
	gAbove := pLam.Gap(72 << 10)
	slopeBelow := (pLam.Gap(60<<10) - pLam.Gap(48<<10)) / float64(12<<10)
	extrap := gBelow + slopeBelow*float64(12<<10)
	if gAbove <= extrap {
		t.Fatalf("g should jump past the leap: got %v, extrapolation %v", gAbove, extrap)
	}
}
