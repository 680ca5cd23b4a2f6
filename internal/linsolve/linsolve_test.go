package linsolve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{
		{0, 1},
		{1, 0},
	}
	b := []float64{3, 5}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 5 || x[1] != 3 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := Solve(a, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveBadDimensions(t *testing.T) {
	if _, err := Solve(nil, nil); err == nil {
		t.Fatal("empty system should error")
	}
	if _, err := Solve([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("non-square should error")
	}
	if _, err := Solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("rhs length mismatch should error")
	}
}

func TestSolveDoesNotModifyInput(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{3, 5}
	_, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][0] != 1 || b[0] != 3 {
		t.Fatal("Solve modified its inputs")
	}
}

// Property: for random well-conditioned systems, Solve returns x with a
// tiny residual.
func TestSolvePropertyRandomSystems(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%8) + 1
		rng := rand.New(rand.NewSource(seed))
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) + 1 // diagonally dominant → well conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 10
		}
		b := make([]float64, n)
		for i := range a {
			for j := range a[i] {
				b[i] += a[i][j] * want[j]
			}
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-7 {
				return false
			}
		}
		return residual(a, x, b) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresExactSquare(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	x, err := LeastSquares(a, []float64{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 4 || x[1] != 9 {
		t.Fatalf("x = %v", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = c0 + c1*x through noisy-free points of y = 2 + 3x, with
	// a redundant third row; exact fit expected.
	a := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	b := []float64{2, 5, 8, 11}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestLeastSquaresMinimizesResidual(t *testing.T) {
	// Inconsistent system: best fit of constant through {1, 2, 3} is 2.
	a := [][]float64{{1}, {1}, {1}}
	x, err := LeastSquares(a, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 {
		t.Fatalf("x = %v, want [2]", x)
	}
}

func TestLeastSquaresBadShapes(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("rows < cols should error")
	}
	if _, err := LeastSquares([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged matrix should error")
	}
}

// residual returns the max-norm of A·x - b.
func residual(a [][]float64, x, b []float64) float64 {
	res := 0.0
	for i := range a {
		s := -b[i]
		for j, v := range a[i] {
			s += v * x[j]
		}
		if r := math.Abs(s); r > res {
			res = r
		}
	}
	return res
}
