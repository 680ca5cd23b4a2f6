package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/collective"
	"repro/internal/stats"
)

// Compile-time checks: every model keeps the closed forms of the
// paper's evaluation beside Predict.
var (
	_ flatForms = (*Hockney)(nil)
	_ flatForms = (*HetHockney)(nil)
	_ flatForms = (*LogP)(nil)
	_ flatForms = (*LogGP)(nil)
	_ flatForms = (*PLogP)(nil)
	_ flatForms = (*LMO)(nil)
	_ flatForms = (*LMOX)(nil)
)

func feq(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(a)) }

func TestHockneyFormulas(t *testing.T) {
	h := &Hockney{Alpha: 1e-4, Beta: 1e-8}
	m := 10000
	if !feq(h.P2P(0, 1, m), 1e-4+1e-4) {
		t.Fatalf("p2p = %v", h.P2P(0, 1, m))
	}
	if !feq(h.ScatterLinearSerial(16, m), 15*2e-4) {
		t.Fatal("serial scatter")
	}
	if !feq(h.ScatterLinearParallel(16, m), 2e-4) {
		t.Fatal("parallel scatter")
	}
	// eq (3): log2(16)·α + 15·β·M.
	if !feq(h.ScatterBinomial(0, 16, m), 4*1e-4+15*1e-4) {
		t.Fatalf("binomial = %v", h.ScatterBinomial(0, 16, m))
	}
	if h.GatherLinear(0, 16, m) != h.ScatterLinear(0, 16, m) {
		t.Fatal("Hockney cannot distinguish gather from scatter")
	}
}

// Build a het-Hockney model with distinct per-pair values and check the
// recursive binomial formula reproduces the paper's eq (2) for n=8.
func TestHetHockneyEquation2(t *testing.T) {
	n := 8
	h := NewHetHockney(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				h.Alpha[i][j] = 1e-4 * float64(1+((i*3+j*7)%5))
				h.Beta[i][j] = 1e-8 * float64(1+((i*5+j*11)%7))
			}
		}
	}
	M := 4096
	mf := float64(M)
	a := func(i, j int) float64 { return h.Alpha[i][j] }
	b := func(i, j int) float64 { return h.Beta[i][j] }
	want := a(0, 4) + 4*b(0, 4)*mf + math.Max(
		a(0, 2)+2*b(0, 2)*mf+math.Max(a(0, 1)+b(0, 1)*mf, a(2, 3)+b(2, 3)*mf),
		a(4, 6)+2*b(4, 6)*mf+math.Max(a(4, 5)+b(4, 5)*mf, a(6, 7)+b(6, 7)*mf),
	)
	if got := h.ScatterBinomial(0, n, M); !feq(got, want) {
		t.Fatalf("eq(2): got %v, want %v", got, want)
	}
}

// With uniform parameters the recursive het formula must collapse to
// the homogeneous eq (3) for powers of two.
func TestHetHockneyCollapsesToHomogeneous(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		h := NewHetHockney(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					h.Alpha[i][j] = 2e-4
					h.Beta[i][j] = 3e-8
				}
			}
		}
		hom := h.Averaged()
		if !feq(hom.Alpha, 2e-4) || !feq(hom.Beta, 3e-8) {
			t.Fatalf("averaged = %+v", hom)
		}
		M := 1 << 14
		if !feq(h.ScatterBinomial(0, n, M), hom.ScatterBinomial(0, n, M)) {
			t.Fatalf("n=%d: het %v != hom %v", n,
				h.ScatterBinomial(0, n, M), hom.ScatterBinomial(0, n, M))
		}
	}
}

func TestHetHockneySerialVsParallel(t *testing.T) {
	n := 4
	h := NewHetHockney(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				h.Alpha[i][j] = float64(i+j) * 1e-4
				h.Beta[i][j] = 1e-8
			}
		}
	}
	m := 1000
	serial := h.ScatterLinearSerial(0, m)
	par := h.ScatterLinearParallel(0, m)
	if serial <= par {
		t.Fatalf("serial %v must exceed parallel %v", serial, par)
	}
	// Parallel is the slowest single destination.
	want := h.P2P(0, 3, m)
	if !feq(par, want) {
		t.Fatalf("parallel = %v, want %v", par, want)
	}
}

func TestLogPPackets(t *testing.T) {
	l := &LogP{L: 1e-4, O: 2e-5, G: 1e-5, W: 1024, P: 16}
	if l.packets(0) != 1 || l.packets(1) != 1 || l.packets(1024) != 1 || l.packets(1025) != 2 {
		t.Fatal("packet count")
	}
	if !feq(l.P2P(0, 1, 100), 1e-4+4e-5) {
		t.Fatal("small message should be L+2o")
	}
	if !feq(l.P2P(0, 1, 4096), 1e-4+4e-5+3e-5) {
		t.Fatalf("4 packets should add 3 gaps: %v", l.P2P(0, 1, 4096))
	}
}

func TestLogGPFormulas(t *testing.T) {
	l := &LogGP{L: 1e-4, O: 2e-5, SmG: 5e-5, BigG: 1e-8, P: 16}
	m := 10001
	if !feq(l.P2P(0, 1, m), 1e-4+4e-5+1e-4) {
		t.Fatalf("p2p = %v", l.P2P(0, 1, m))
	}
	// Table II: L + 2o + (n-1)(M-1)G + (n-2)g.
	want := 1e-4 + 4e-5 + 15*1e4*1e-8 + 14*5e-5
	if !feq(l.ScatterLinear(0, 16, m), want) {
		t.Fatalf("scatter = %v, want %v", l.ScatterLinear(0, 16, m), want)
	}
	if l.GatherLinear(0, 16, m) != l.ScatterLinear(0, 16, m) {
		t.Fatal("LogGP gather must equal scatter")
	}
	// m=0 is clamped to 1 byte.
	if !feq(l.P2P(0, 1, 0), 1e-4+4e-5) {
		t.Fatal("zero-byte clamp")
	}
}

func TestPLogPFormulas(t *testing.T) {
	g, _ := stats.NewPWLinear([]float64{0, 1 << 16}, []float64{1e-5, 1e-3})
	os, _ := stats.NewPWLinear([]float64{0}, []float64{5e-6})
	or, _ := stats.NewPWLinear([]float64{0}, []float64{6e-6})
	p := &PLogP{L: 1e-4, OS: os, OR: or, G: g, P: 16}
	m := 1 << 15 // halfway: g = (1e-5 + 1e-3)/2 ≈ 5.05e-4
	wantGap := 1e-5 + (1e-3-1e-5)/2
	if !feq(p.Gap(m), wantGap) {
		t.Fatalf("gap = %v, want %v", p.Gap(m), wantGap)
	}
	if !feq(p.P2P(0, 1, m), 1e-4+wantGap) {
		t.Fatal("p2p = L + g(M)")
	}
	if !feq(p.ScatterLinear(0, 16, m), 1e-4+15*wantGap) {
		t.Fatal("Table II PLogP scatter")
	}
	if !feq(p.SendOverhead(m), 5e-6) || !feq(p.RecvOverhead(m), 6e-6) {
		t.Fatal("overheads")
	}
}

func buildLMOX(n int) *LMOX {
	x := NewLMOX(n)
	for i := 0; i < n; i++ {
		x.C[i] = 1e-5 * float64(i+1)
		x.T[i] = 1e-9 * float64(i+1)
		for j := 0; j < n; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	return x
}

func TestLMOXPointToPoint(t *testing.T) {
	x := buildLMOX(4)
	m := 10000
	want := x.C[1] + x.L[1][3] + x.C[3] + float64(m)*(x.T[1]+1e-8+x.T[3])
	if !feq(x.P2P(1, 3, m), want) {
		t.Fatalf("p2p = %v, want %v", x.P2P(1, 3, m), want)
	}
	// Hockney view must agree with the full model pointwise.
	h := x.HockneyView()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && !feq(h.P2P(i, j, m), x.P2P(i, j, m)) {
				t.Fatalf("Hockney view diverges at (%d,%d)", i, j)
			}
		}
	}
}

func TestLMOXScatterLinearEq4(t *testing.T) {
	n := 5
	x := buildLMOX(n)
	m := 20000
	root := 0
	mx := 0.0
	for i := 1; i < n; i++ {
		term := x.L[root][i] + float64(m)/x.Beta[root][i] + x.C[i] + float64(m)*x.T[i]
		mx = math.Max(mx, term)
	}
	want := float64(n-1)*(x.C[root]+float64(m)*x.T[root]) + mx
	if got := x.ScatterLinear(root, n, m); !feq(got, want) {
		t.Fatalf("eq(4): got %v, want %v", got, want)
	}
}

func TestLMOXGatherLinearEq5Branches(t *testing.T) {
	n := 6
	x := buildLMOX(n)
	x.Gather = GatherEmpirical{
		M1: 4 << 10, M2: 64 << 10,
		EscModes: []stats.Mode{{Value: 0.2, Count: 7}, {Value: 0.25, Count: 3}},
		ProbLow:  0.05, ProbHigh: 0.5,
	}
	root := 0
	base := func(m int) float64 { return float64(n-1) * (x.C[root] + float64(m)*x.T[root]) }

	small := 1 << 10
	if !feq(x.GatherLinear(root, n, small), base(small)+x.maxRemote(root, n, small)) {
		t.Fatal("small-message branch should be the max form")
	}
	big := 128 << 10
	if !feq(x.GatherLinear(root, n, big), base(big)+x.sumRemote(root, n, big)) {
		t.Fatal("large-message branch should be the sum form")
	}
	mid := 32 << 10
	got := x.GatherLinear(root, n, mid)
	low := base(mid) + x.maxRemote(root, n, mid)
	if got <= low {
		t.Fatal("mid-region expectation should exceed the clean line")
	}
	wantExtra := x.Gather.Prob(mid) * x.Gather.MeanEscalation()
	if !feq(got, low+wantExtra) {
		t.Fatalf("mid branch = %v, want %v", got, low+wantExtra)
	}

	lo, hi := x.GatherLinearBand(root, n, mid)
	if !feq(lo, low) || !feq(hi, low+0.25) {
		t.Fatalf("band = [%v, %v], want [%v, %v]", lo, hi, low, low+0.25)
	}
	// Outside the region the band collapses.
	lo, hi = x.GatherLinearBand(root, n, small)
	if lo != hi {
		t.Fatal("band should collapse below M1")
	}
}

func TestLMOXGatherSteeperThanScatterForLargeM(t *testing.T) {
	n := 16
	x := buildLMOX(n)
	x.Gather = GatherEmpirical{M1: 4 << 10, M2: 64 << 10}
	m := 200 << 10
	if x.GatherLinear(0, n, m) <= x.ScatterLinear(0, n, m) {
		t.Fatal("above M2 gather must be steeper than scatter (sum vs max)")
	}
}

func TestGatherEmpirical(t *testing.T) {
	g := GatherEmpirical{}
	if g.Valid() || g.Prob(1000) != 0 || g.MeanEscalation() != 0 || g.MaxEscalation() != 0 {
		t.Fatal("zero value should be inert")
	}
	g = GatherEmpirical{M1: 100, M2: 300, ProbLow: 0.1, ProbHigh: 0.5,
		EscModes: []stats.Mode{{Value: 0.2, Count: 1}, {Value: 0.4, Count: 3}}}
	if !g.Valid() {
		t.Fatal("should be valid")
	}
	if g.Prob(100) != 0 || g.Prob(300) != 0 {
		t.Fatal("prob zero at boundaries")
	}
	if !feq(g.Prob(200), 0.3) {
		t.Fatalf("prob(200) = %v", g.Prob(200))
	}
	if !feq(g.MeanEscalation(), (0.2+3*0.4)/4) {
		t.Fatalf("mean = %v", g.MeanEscalation())
	}
	if !feq(g.MaxEscalation(), 0.4) {
		t.Fatalf("max = %v", g.MaxEscalation())
	}
}

// The separated binomial recursion overlaps wire/receive with the
// parent's next send, so it can never exceed the conflated eq (1)
// recursion on the Hockney view of the same parameters.
func TestSeparatedBinomialNoSlowerThanConflated(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 11} {
		x := buildLMOX(n)
		h := x.HockneyView()
		for _, m := range []int{0, 1 << 10, 64 << 10, 1 << 20} {
			sep := x.ScatterBinomial(0, n, m)
			con := h.ScatterBinomial(0, n, m)
			if sep > con+1e-15 {
				t.Fatalf("n=%d m=%d: separated %v > conflated %v", n, m, sep, con)
			}
		}
	}
}

func TestLMOOriginalFoldsLatency(t *testing.T) {
	n := 4
	l := NewLMO(n)
	for i := 0; i < n; i++ {
		l.C()[i] = 5e-5
		l.T()[i] = 2e-9
		for j := 0; j < n; j++ {
			if i != j {
				l.Beta()[i][j] = 1e8
			}
		}
	}
	m := 1000
	want := 1e-4 + float64(m)*(4e-9+1e-8)
	if !feq(l.P2P(0, 1, m), want) {
		t.Fatalf("original LMO p2p = %v, want %v", l.P2P(0, 1, m), want)
	}
	if l.Name() == (&LMOX{}).Name() {
		t.Fatal("original and extended models must be distinguishable")
	}
	l.inner.Gather = GatherEmpirical{M1: 10, M2: 20}
	if l.GatherLinear(0, n, 15) <= l.GatherLinear(0, n, 9) {
		t.Fatal("gather empirical parameters should apply")
	}
}

// Predictions must be monotone non-decreasing in the message size for
// all models outside empirical irregularity regions.
func TestPredictionsMonotoneInSize(t *testing.T) {
	g, _ := stats.NewPWLinear([]float64{0, 1 << 20}, []float64{1e-5, 1e-2})
	o, _ := stats.NewPWLinear([]float64{0}, []float64{1e-6})
	preds := []flatForms{
		&Hockney{Alpha: 1e-4, Beta: 1e-8},
		&LogP{L: 1e-4, O: 1e-5, G: 1e-5, W: 1024},
		&LogGP{L: 1e-4, O: 1e-5, SmG: 5e-5, BigG: 1e-8},
		&PLogP{L: 1e-4, OS: o, OR: o, G: g},
		buildLMOX(16),
	}
	sizes := []int{1, 1 << 8, 1 << 12, 1 << 16, 1 << 20}
	for _, p := range preds {
		for _, f := range []func(int) float64{
			func(m int) float64 { return p.P2P(0, 1, m) },
			func(m int) float64 { return p.ScatterLinear(0, 16, m) },
			func(m int) float64 { return p.ScatterBinomial(0, 16, m) },
		} {
			prev := -1.0
			for _, m := range sizes {
				v := f(m)
				if v < prev {
					t.Fatalf("%s: prediction decreased at m=%d", p.Name(), m)
				}
				prev = v
			}
		}
	}
}

// The binomial recursion must agree with a brute-force evaluation over
// the tree for a random-ish cost function.
func TestBinomialRecursiveAgainstBruteForce(t *testing.T) {
	n := 16
	tree := collective.Binomial(n, 0)
	p2p := func(i, j, m int) float64 {
		return 1e-4*float64(1+(i+3*j)%5) + 1e-8*float64(m)
	}
	// Brute force: simulate the schedule; each node sends to children in
	// order, each send takes p2p and the child starts after it lands.
	var finish func(r int, start float64) float64
	finish = func(r int, start float64) float64 {
		end := start
		tSend := start
		for _, c := range tree.Children[r] {
			tSend += p2p(r, c, tree.SubtreeSize[c]*1000)
			if f := finish(c, tSend); f > end {
				end = f
			}
		}
		return end
	}
	want := finish(0, 0)
	got := treeRecursive(tree, scatterBytes(tree, 1000), p2p)
	if !feq(got, want) {
		t.Fatalf("recursion %v != brute force %v", got, want)
	}
}

func TestMoreCollectivePredictors(t *testing.T) {
	n := 8
	x := buildLMOX(n)
	m := 16 << 10
	ag := x.AllgatherRing(n, m)
	// One ring round costs at least the best p2p; n-1 rounds in total.
	if ag <= float64(n-2)*x.P2P(0, 1, m) {
		t.Fatalf("allgather = %v too small", ag)
	}
	a2a := x.AlltoallLinear(n, m)
	if a2a <= ag/2 {
		t.Fatalf("alltoall (%v) should be substantial vs allgather (%v)", a2a, ag)
	}
	// Homogeneous Hockney shapes.
	hk := &Hockney{Alpha: 1e-4, Beta: 1e-8}
	if hk.AllgatherRing(n, m) != float64(n-1)*hk.P2P(0, 1, m) {
		t.Fatal("hockney allgather")
	}
	if hk.AlltoallLinear(n, m) != hk.AllgatherRing(n, m) {
		t.Fatal("hockney alltoall should match its allgather form")
	}
	// Het ring uses the slowest hop.
	het := NewHetHockney(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				het.Alpha[i][j] = 1e-4
				het.Beta[i][j] = 1e-8
			}
		}
	}
	het.Alpha[1][2] = 5e-4 // slow hop on the ring
	want := 2 * het.P2P(1, 2, m)
	if got := het.AllgatherRing(3, m); got != want {
		t.Fatalf("het allgather = %v, want %v", got, want)
	}
}

// The new predictors must track the simulator within a generous factor
// (they are coarse analytic forms, but the shape must hold).
func TestMoreCollectivesMonotone(t *testing.T) {
	x := buildLMOX(8)
	prev := 0.0
	for _, m := range []int{1 << 10, 8 << 10, 64 << 10} {
		v := x.AllgatherRing(8, m)
		if v <= prev {
			t.Fatal("allgather not monotone in m")
		}
		prev = v
	}
}

// Property: the conflated tree recursion matches a brute-force schedule
// simulation on random k-ary trees and random cost functions.
func TestTreeRecursiveBruteForceProperty(t *testing.T) {
	f := func(seed int64, n8, k8 uint8) bool {
		n := int(n8%14) + 2
		k := int(k8%3) + 1
		rng := rand.New(rand.NewSource(seed))
		tree := collective.KAry(n, 0, k)
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		for i := range a {
			a[i] = 1e-5 + rng.Float64()*1e-4
			b[i] = 1e-9 + rng.Float64()*1e-8
		}
		p2p := func(i, j, m int) float64 { return a[i*n+j] + b[i*n+j]*float64(m) }
		m := 1 << (8 + rng.Intn(8))
		var finish func(r int, start float64) float64
		finish = func(r int, start float64) float64 {
			end := start
			tSend := start
			for _, c := range tree.Children[r] {
				tSend += p2p(r, c, tree.SubtreeSize[c]*m)
				if f := finish(c, tSend); f > end {
					end = f
				}
			}
			return end
		}
		want := finish(0, 0)
		got := treeRecursive(tree, scatterBytes(tree, m), p2p)
		return feq(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Exercise the closed-form surface of every model uniformly: names are
// distinct, string renderings are non-empty, and every collective
// prediction is finite and positive.
func TestPredictorSurfaceUniform(t *testing.T) {
	g, _ := stats.NewPWLinear([]float64{0, 1 << 16}, []float64{1e-5, 1e-3})
	o, _ := stats.NewPWLinear([]float64{0}, []float64{5e-6})
	lmoOrig := NewLMO(8)
	for i := 0; i < 8; i++ {
		lmoOrig.C()[i] = 5e-5
		lmoOrig.T()[i] = 3e-9
		for j := 0; j < 8; j++ {
			if i != j {
				lmoOrig.Beta()[i][j] = 1e8
			}
		}
	}
	het := NewHetHockney(8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				het.Alpha[i][j] = 1e-4
				het.Beta[i][j] = 1e-8
			}
		}
	}
	preds := []flatForms{
		&Hockney{Alpha: 1e-4, Beta: 1e-8},
		het,
		&LogP{L: 1e-4, O: 1e-5, G: 1e-5, W: 1024, P: 8},
		&LogGP{L: 1e-4, O: 1e-5, SmG: 5e-5, BigG: 1e-8, P: 8},
		&PLogP{L: 1e-4, OS: o, OR: o, G: g, P: 8},
		buildLMOX(8),
		lmoOrig,
	}
	names := map[string]bool{}
	const root, n, m = 2, 8, 16 << 10
	for _, p := range preds {
		if names[p.Name()] {
			t.Fatalf("duplicate model name %q", p.Name())
		}
		names[p.Name()] = true
		for what, v := range map[string]float64{
			"p2p":             p.P2P(0, 1, m),
			"scatterLinear":   p.ScatterLinear(root, n, m),
			"gatherLinear":    p.GatherLinear(root, n, m),
			"scatterBinomial": p.ScatterBinomial(root, n, m),
			"gatherBinomial":  p.GatherBinomial(root, n, m),
		} {
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("%s: %s = %v", p.Name(), what, v)
			}
		}
		if s, ok := p.(fmt.Stringer); ok && s.String() == "" {
			t.Fatalf("%s: empty String()", p.Name())
		}
	}
}

// LMOX.GatherBinomial mirrors ScatterBinomial under homogeneous
// parameters (the reverse flow has the same critical path).
func TestLMOXBinomialSymmetries(t *testing.T) {
	n := 8
	x := NewLMOX(n)
	for i := 0; i < n; i++ {
		x.C[i] = 5e-5
		x.T[i] = 3e-9
		for j := 0; j < n; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	m := 16 << 10
	if !feq(x.GatherBinomial(0, n, m), x.ScatterBinomial(0, n, m)) {
		t.Fatal("homogeneous gather/scatter binomial should coincide")
	}
	if !feq(x.WireCostRev(1, 2, m), x.WireCost(2, 1, m)) {
		t.Fatal("reverse wire should use the opposite direction's link")
	}
}

func TestCheckNPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"het-hockney": func() { NewHetHockney(4).ScatterLinear(0, 5, 1) },
		"lmox":        func() { NewLMOX(4).ScatterLinear(0, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: wrong n should panic", name)
				}
			}()
			fn()
		}()
	}
}
