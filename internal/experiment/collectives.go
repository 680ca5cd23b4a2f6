package experiment

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/optimize"
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
	ms, _, err := cfg.family("lmox")
	if err != nil {
		return nil, err
	}

	// The tree entries time coll over alg's tree through the probe, and
	// LMO predicts them with its tree recursion; the others time their
	// own operation under the probe's rule against LMO's closed form.
	type entry struct {
		name    string
		predict func(m int) float64
		measure func(r *mpi.Rank, m int) mpib.Measurement
	}
	p := cfg.Probe()
	tree := func(name string, coll models.Collective, alg mpi.Alg) entry {
		return entry{name, curve(ms.LMO, coll, alg, cfg.Root, n), func(r *mpi.Rank, m int) mpib.Measurement {
			return p.Measure(r, mpib.MaxTiming, coll, optimize.Shape{Alg: alg}, m)
		}}
	}
	entries := []entry{
		tree("bcast (binomial)", models.CollBcast, mpi.Binomial),
		tree("reduce (binomial)", models.CollReduce, mpi.Binomial),
		tree("scatter (binary)", models.CollScatter, mpi.Binary),
		tree("scatter (chain)", models.CollScatter, mpi.Chain),
		{"allgather (ring)", func(m int) float64 { return ms.LMO.AllgatherRing(n, m) }, func(r *mpi.Rank, m int) mpib.Measurement {
			block := mpi.ZeroPayload(m)
			return mpib.Measure(r, p.root, mpib.MaxTiming, p.opts, func() { r.Allgather(block) })
		}},
		{"alltoall (linear)", func(m int) float64 { return ms.LMO.AlltoallLinear(n, m) }, func(r *mpi.Rank, m int) mpib.Measurement {
			send := make([][]byte, n)
			for i := range send {
				send[i] = mpi.ZeroPayload(m)
			}
			return mpib.Measure(r, p.root, mpib.MaxTiming, p.opts, func() { r.Alltoall(send) })
		}},
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
				if meas := e.measure(r, m); r.Rank() == 0 {
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
