package estimate

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// TestLMOOriginalGolden pins the five-parameter LMO of family lmo5 bit
// for bit, its C, t and every row of β, on four settings: Table I under
// LAM at seed 1 and under MPICH at seed 3, Table1Hetero under LAM at
// seed 2 (parallel schedules), and Table I's serial schedule under
// Ideal. The golden predates the solve over LMOX's records: it was
// rendered when the model still ran its own experiments, so it shows
// that the solve recovers that model exactly. It pins the model only,
// not the estimation's report.
func TestLMOOriginalGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name     string
		cl       *cluster.Cluster
		prof     *cluster.TCPProfile
		seed     int64
		parallel bool
	}{
		{"table1 lam seed 1", cluster.Table1(), cluster.LAM(), 1, true},
		{"table1 mpich seed 3", cluster.Table1(), cluster.MPICH(), 3, true},
		{"table1hetero lam seed 2", cluster.Table1Hetero(), cluster.LAM(), 2, true},
		{"table1 ideal serial", cluster.Table1(), cluster.Ideal(), 1, false},
	} {
		cfg := mpi.Config{Cluster: c.cl, Profile: c.prof, Seed: c.seed}
		m, _, err := Family(nil, cfg, "lmo5", 0, 20, Options{Parallel: c.parallel})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "lmo5 %s\n", c.name)
		b.WriteString("C:" + runLengths(m.LMO5.C()) + "\n")
		b.WriteString("t:" + runLengths(m.LMO5.T()) + "\n")
		for i, row := range m.LMO5.Beta() {
			fmt.Fprintf(&b, "beta[%d]:%s\n", i, runLengths(row))
		}
	}
	matchGolden(t, "lmo5.golden", b.String())
}
