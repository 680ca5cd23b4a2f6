package mpib

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

func testConfig(n int) mpi.Config {
	return mpi.Config{
		Cluster: cluster.Homogeneous(n,
			cluster.NodeSpec{C: 50 * time.Microsecond, T: 5e-9},
			cluster.LinkSpec{L: 40 * time.Microsecond, Beta: 1e8}),
		Profile: cluster.Ideal(),
		Seed:    1,
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Confidence != 0.95 || o.RelErr != 0.025 || o.MinReps != 2 || o.MaxReps != 100 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{MinReps: 50, MaxReps: 10}.WithDefaults()
	if o.MaxReps != 50 {
		t.Fatal("MaxReps should be raised to MinReps")
	}
}

func TestMeasureDeterministicOp(t *testing.T) {
	const n = 4
	var got Measurement
	_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
		m := Measure(r, 0, MaxTiming, Options{}, func() {
			r.Scatter(mpi.Linear, 0, blocks(n, 1000))
		})
		if r.Rank() == 0 {
			got = m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic operation converges at MinReps with zero stddev.
	if got.N != 2 {
		t.Fatalf("reps = %d, want 2 (deterministic op)", got.N)
	}
	if got.StdDev != 0 {
		t.Fatalf("stddev = %v, want 0", got.StdDev)
	}
	if got.Mean <= 0 {
		t.Fatal("mean must be positive")
	}
	if got.Elapsed <= 0 {
		t.Fatal("elapsed must be positive")
	}
}

func TestMeasureAllRanksAgree(t *testing.T) {
	const n = 6
	means := make([]float64, n)
	reps := make([]int, n)
	_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
		m := Measure(r, 0, MaxTiming, Options{}, func() {
			r.Scatter(mpi.Binomial, 0, blocks(n, 500))
		})
		means[r.Rank()] = m.Mean
		reps[r.Rank()] = m.N
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if means[i] != means[0] || reps[i] != reps[0] {
			t.Fatalf("rank %d disagrees: mean %v vs %v, reps %d vs %d", i, means[i], means[0], reps[i], reps[0])
		}
	}
}

func TestRootVsMaxTiming(t *testing.T) {
	// For linear scatter the root finishes before the leaves, so
	// RootTiming < MaxTiming.
	const n = 8
	var root, max float64
	_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
		mRoot := Measure(r, 0, RootTiming, Options{}, func() {
			r.Scatter(mpi.Linear, 0, blocks(n, 20000))
		})
		mMax := Measure(r, 0, MaxTiming, Options{}, func() {
			r.Scatter(mpi.Linear, 0, blocks(n, 20000))
		})
		if r.Rank() == 0 {
			root, max = mRoot.Mean, mMax.Mean
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(root > 0 && max > root) {
		t.Fatalf("root timing %v should be below max timing %v", root, max)
	}
}

func TestMeasureAdaptiveStopsOnNoise(t *testing.T) {
	// Escalating gather (LAM profile, medium messages) is noisy; the
	// loop must run beyond MinReps but respect MaxReps.
	cfg := testConfig(8)
	cfg.Profile = cluster.LAM()
	var m Measurement
	_, err := mpi.Run(cfg, func(r *mpi.Rank) {
		got := Measure(r, 0, MaxTiming, Options{MinReps: 12, MaxReps: 30}, func() {
			r.Gather(mpi.Linear, 0, make([]byte, 48<<10))
		})
		if r.Rank() == 0 {
			m = got
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.N <= 12 {
		t.Fatalf("reps = %d; noisy op should need more than MinReps", m.N)
	}
	if m.N > 30 {
		t.Fatalf("reps = %d exceeded MaxReps", m.N)
	}
	if m.StdDev == 0 {
		t.Fatal("noisy op should have nonzero stddev")
	}
}

func TestMeasureSequentialCallsIndependent(t *testing.T) {
	const n = 4
	var first, second Measurement
	_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
		a := Measure(r, 0, MaxTiming, Options{}, func() {
			r.Scatter(mpi.Linear, 0, blocks(n, 1000))
		})
		b := Measure(r, 0, MaxTiming, Options{}, func() {
			r.Scatter(mpi.Linear, 0, blocks(n, 2000))
		})
		if r.Rank() == 0 {
			first, second = a, b
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Mean <= first.Mean {
		t.Fatalf("2000-byte scatter (%v) should exceed 1000-byte (%v)", second.Mean, first.Mean)
	}
}

func TestLocalOpOnDesignatedRankOnly(t *testing.T) {
	// Measuring a root-local operation: only the designated rank works;
	// RootTiming sees it, and all ranks still agree.
	const n = 3
	var m Measurement
	_, err := mpi.Run(testConfig(n), func(r *mpi.Rank) {
		got := Measure(r, 1, RootTiming, Options{}, func() {
			if r.Rank() == 1 {
				r.Sleep(2 * time.Millisecond)
			}
		})
		if r.Rank() == 2 {
			m = got
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean != 0.002 {
		t.Fatalf("mean = %v, want 2ms", m.Mean)
	}
}

func blocks(n, bs int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, bs)
	}
	return out
}
