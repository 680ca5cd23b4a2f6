package commperf_test

import (
	"fmt"
	"time"

	commperf "repro"
)

// ExampleNewSystem shows the estimate → predict → verify loop on a
// small homogeneous cluster (deterministic, so the output is exact).
func ExampleNewSystem() {
	cl := commperf.Homogeneous(4,
		commperf.NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
		commperf.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8})
	sys := commperf.NewSystem(cl, commperf.Ideal(), 1)

	est, err := sys.Estimate(commperf.ModelLMO)
	if err != nil {
		fmt.Println("estimate:", err)
		return
	}
	lmo := est.LMO
	// Ground truth: C = 50µs, L = 40µs — the estimation separates them.
	fmt.Printf("C ≈ %.0fµs, L ≈ %.0fµs\n", lmo.C[0]*1e6, lmo.L[0][1]*1e6)
	// Output:
	// C ≈ 50µs, L ≈ 40µs
}

// ExampleSystem_Run runs an SPMD program on the simulated cluster: a
// scatter whose blocks arrive intact at every rank.
func ExampleSystem_Run() {
	cl := commperf.Homogeneous(4,
		commperf.NodeSpec{C: 50 * time.Microsecond, T: 4e-9},
		commperf.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8})
	sys := commperf.NewSystem(cl, commperf.Ideal(), 1)

	checks := 0
	_, err := sys.Run(func(r *commperf.Rank) {
		blocks := make([][]byte, r.Size())
		for i := range blocks {
			blocks[i] = []byte{byte(i)}
		}
		mine := r.Scatter(commperf.Binomial, 0, blocks)
		if mine[0] == byte(r.Rank()) {
			checks++
		}
	})
	fmt.Println(err, checks)
	// Output:
	// <nil> 4
}

// ExampleSelectAlgAmong shows model-based algorithm selection between
// linear and binomial scatter: on a homogeneous 16-node cluster
// binomial wins small messages, linear wins large ones.
func ExampleSelectAlgAmong() {
	x := newUniformLMO(16)
	linBin := []commperf.Alg{commperf.Linear, commperf.Binomial}
	small, _ := commperf.SelectAlgAmong(x, commperf.CollScatter, 0, 16, 64, linBin)
	large, _ := commperf.SelectAlgAmong(x, commperf.CollScatter, 0, 16, 1<<20, linBin)
	fmt.Println(small)
	fmt.Println(large)
	// Output:
	// binomial
	// linear
}

// ExampleProportionalCounts distributes bytes in proportion to the
// modelled processor speeds.
func ExampleProportionalCounts() {
	x := newUniformLMO(4)
	x.T[0] = 2e-9 // twice as fast per byte as the others (4e-9)
	counts := commperf.ProportionalCounts(x, 1000, 1)
	total := 0
	for _, c := range counts {
		total += c
	}
	fmt.Println(total, counts[0] > counts[1])
	// Output:
	// 1000 true
}

// newUniformLMO builds a uniform LMO model for the examples.
func newUniformLMO(n int) *commperf.LMO {
	x := &commperf.LMO{
		C:    make([]float64, n),
		T:    make([]float64, n),
		L:    make([][]float64, n),
		Beta: make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		x.C[i] = 5e-5
		x.T[i] = 4e-9
		x.L[i] = make([]float64, n)
		x.Beta[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i != j {
				x.L[i][j] = 4e-5
				x.Beta[i][j] = 1e8
			}
		}
	}
	return x
}
