package autotune

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/tuned"
)

// SimPredictor is a CollectivePredictor backed by the event simulator
// instead of a closed-form model: every Predict runs the queried
// collective on the configured cluster and reports the virtual-time
// makespan. It is exact where the analytical models approximate — and
// orders of magnitude slower, which is precisely why the tuner prunes
// with a closed-form model first and reserves simulation for the
// survivors. It also closes the loop for model-fidelity tests: a
// model's Predict can be compared against SimPredictor's on the same
// Query.
//
// Scatter and gather queries are supported (the simulator executes
// any tree degree and segment size through the optimize exec helpers);
// broadcast and reduce are not, since the simulated MPI binding fixes
// their algorithms.
type SimPredictor struct {
	cfg experiment.Config
}

var _ models.CollectivePredictor = (*SimPredictor)(nil)

// NewSimPredictor builds a simulator-backed predictor for a machine.
// Zero-value cfg fields fall back to the experiment defaults.
func NewSimPredictor(cfg experiment.Config) *SimPredictor {
	def := experiment.Default()
	if cfg.Cluster == nil {
		cfg.Cluster = def.Cluster
	}
	if cfg.Profile == nil {
		cfg.Profile = def.Profile
	}
	if cfg.ObsReps <= 0 {
		cfg.ObsReps = def.ObsReps
	}
	return &SimPredictor{cfg: cfg}
}

// Name identifies the predictor in reports.
func (s *SimPredictor) Name() string { return "sim" }

// Capabilities: the simulator executes any tree shape on the real
// per-node cluster description.
func (s *SimPredictor) Capabilities() models.Capabilities {
	return models.Capabilities{Trees: true, PerNode: true, Simulates: true}
}

// P2P measures a single src→dst message of m bytes.
func (s *SimPredictor) P2P(src, dst, m int) float64 {
	res, err := mpi.Run(s.cfg.MPIConfig(), func(r *mpi.Rank) {
		switch r.Rank() {
		case src:
			r.Send(dst, 1, mpi.ZeroPayload(m))
		case dst:
			r.Recv(src, 1)
		}
	})
	if err != nil {
		return 0
	}
	return res.Duration.Seconds()
}

// Predict runs the queried collective in the simulator. The query's N
// must match the configured cluster.
func (s *SimPredictor) Predict(q models.Query) (float64, error) {
	if q.N != s.cfg.Cluster.N() {
		return 0, fmt.Errorf("sim: predictor simulates %d nodes, query asks %d", s.cfg.Cluster.N(), q.N)
	}
	var op tuned.Op
	switch q.Coll {
	case models.CollScatter:
		op = tuned.OpScatter
	case models.CollGather:
		op = tuned.OpGather
	default:
		return 0, fmt.Errorf("sim: predictor cannot simulate %v (the MPI binding fixes its algorithm)", q.Coll)
	}
	if q.Tree != nil {
		return 0, fmt.Errorf("sim: predictor simulates algorithm families, not explicit trees")
	}
	return Simulate(s.cfg, op, Candidate{Alg: q.Alg, Degree: q.Degree, Segment: q.Segment}, q.Root, q.M)
}
