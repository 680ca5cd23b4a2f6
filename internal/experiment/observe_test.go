package experiment_test

import (
	"testing"

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/optimize"
	"repro/internal/tuned"
)

// TestFiguresAndTunerTimeAlike: the figures' observation and the
// tuner's validation (autotune.Simulate) time a collective through one
// procedure, so at one cell and configuration they return the same
// makespan, bit for bit. The cells are a binomial scatter and a
// segmented gather whose 16 KB segments escalate at random inside
// LAM's irregular region, so that its mean depends on the repetition
// rule; each on the healthy platform and under faults.Demo.
func TestFiguresAndTunerTimeAlike(t *testing.T) {
	for _, tc := range []struct {
		op    tuned.Op
		coll  models.Collective
		shape optimize.Shape
		m     int
	}{
		{tuned.OpScatter, models.CollScatter, optimize.Shape{Alg: mpi.Binomial}, 16 << 10},
		{tuned.OpGather, models.CollGather, optimize.Shape{Alg: mpi.Linear, Segment: 16 << 10}, 48 << 10},
	} {
		for _, plan := range []*faults.Plan{nil, faults.Demo(16)} {
			cfg := experiment.Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 3, Sizes: []int{tc.m}, Faults: plan}
			obs, err := experiment.ObserveShapes(cfg, tc.coll, func(int) optimize.Shape { return tc.shape })
			if err != nil {
				t.Fatal(err)
			}
			sim, err := autotune.Simulate(cfg, tc.op, tc.shape, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if obs.Mean[0] != sim {
				t.Errorf("%s %s at %d B, faults %v: observed %v s, Simulate %v s", tc.op, tc.shape, tc.m, plan != nil, obs.Mean[0], sim)
			}
		}
	}
}
