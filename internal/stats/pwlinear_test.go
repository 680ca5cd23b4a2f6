package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPWLinearInterpolation(t *testing.T) {
	p, err := NewPWLinear([]float64{0, 10, 20}, []float64{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0, 1}, {5, 1.5}, {10, 2}, {15, 3}, {20, 4},
		{-5, 1},   // constant left of first knot
		{30, 6},   // extrapolate with last slope 0.2
		{25, 5},   // extrapolation midpoint
		{12, 2.4}, // interior
	}
	for _, c := range cases {
		if got := p.Eval(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPWLinearUnsortedAndDuplicateKnots(t *testing.T) {
	p, err := NewPWLinear([]float64{20, 0, 10, 10}, []float64{4, 1, 99, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumKnots() != 3 {
		t.Fatalf("knots = %d, want 3", p.NumKnots())
	}
	if got := p.Eval(10); got != 2 {
		t.Fatalf("duplicate knot should keep last y, got %v", got)
	}
}

func TestPWLinearSingleKnot(t *testing.T) {
	p, err := NewPWLinear([]float64{5}, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-10, 5, 100} {
		if p.Eval(x) != 7 {
			t.Fatalf("single-knot Eval(%v) = %v", x, p.Eval(x))
		}
	}
}

func TestPWLinearDegenerate(t *testing.T) {
	if _, err := NewPWLinear(nil, nil); err == nil {
		t.Fatal("empty knots should error")
	}
	if _, err := NewPWLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
}

// Property: Eval at every knot returns that knot's y, for random knot sets.
func TestPWLinearPropertyKnotsExact(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		k := int(n%10) + 1
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, k)
		ys := make([]float64, k)
		used := map[float64]bool{}
		for i := range xs {
			x := math.Round(rng.Float64()*1000) / 10
			for used[x] {
				x += 0.1
			}
			used[x] = true
			xs[i] = x
			ys[i] = rng.Float64() * 100
		}
		p, err := NewPWLinear(xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if !almostEq(p.Eval(xs[i]), ys[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: within the knot span, Eval stays within [min(y), max(y)]
// (interpolation cannot overshoot).
func TestPWLinearPropertyBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(8) + 2
		xs := make([]float64, k)
		ys := make([]float64, k)
		for i := range xs {
			xs[i] = float64(i) * (1 + rng.Float64())
			ys[i] = rng.Float64() * 10
		}
		sort.Float64s(xs)
		p, err := NewPWLinear(xs, ys)
		if err != nil {
			return false
		}
		lo, hi := Min(ys), Max(ys)
		for i := 0; i < 50; i++ {
			x := xs[0] + rng.Float64()*(xs[len(xs)-1]-xs[0])
			y := p.Eval(x)
			if y < lo-1e-9 || y > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestModesBasic(t *testing.T) {
	xs := []float64{0.20, 0.21, 0.20, 0.25, 0.25, 0.80}
	ms := Modes(xs, 0.02)
	if len(ms) != 3 {
		t.Fatalf("modes = %v, want 3 clusters", ms)
	}
	if ms[0].Count != 3 || !almostEq(ms[0].Value, (0.20+0.21+0.20)/3, 1e-12) {
		t.Fatalf("dominant mode = %+v", ms[0])
	}
	if ms[1].Count != 2 || !almostEq(ms[1].Value, 0.25, 1e-12) {
		t.Fatalf("second mode = %+v", ms[1])
	}
}

func TestModesEmptyAndZeroTol(t *testing.T) {
	if Modes(nil, 1) != nil {
		t.Fatal("empty modes should be nil")
	}
	ms := Modes([]float64{1, 1, 2, 2, 2}, 0)
	if len(ms) != 2 || ms[0].Value != 2 || ms[0].Count != 3 {
		t.Fatalf("zero-tol modes = %v", ms)
	}
}

// Property: mode counts sum to the sample size.
func TestModesPropertyCountsSum(t *testing.T) {
	f := func(seed int64, tol8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 10
		}
		tol := float64(tol8%50) / 100
		total := 0
		for _, m := range Modes(xs, tol) {
			total += m.Count
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
