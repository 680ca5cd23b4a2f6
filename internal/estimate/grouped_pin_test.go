package estimate

import (
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/topo"
)

// TestLMOGroupedPinned pins LMOGrouped through each of its branches:
// the small-group witness plan, the witness fallback of an
// all-singleton cluster, the identity buckets of a topology-free
// cluster, the class buckets of three fabrics, and a fault plan. Each
// case pins the groups, the Report's experiments, repetitions and
// cost, and a hash of the model's bits: every C and t, and every row
// of L and β. An experiment added, dropped or measured differently
// moves them.
func TestLMOGroupedPinned(t *testing.T) {
	spec := func(s string) *cluster.Cluster {
		tp, err := topo.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return cluster.FromTopology(tp, cluster.NodeSpec{}, cluster.LinkSpec{})
	}
	hom := func(n int) *cluster.Cluster {
		return cluster.Homogeneous(n, cluster.DefaultTopoNode(), cluster.DefaultTopoAccess())
	}
	// Nodes 1–3 run at three distinct speeds, node 0 at a fourth: every
	// group is a singleton, so no group lends a witness pair.
	fourSpeeds := func() *cluster.Cluster {
		cl := hom(4)
		for i, us := range []int{55, 75, 95} {
			cl.Nodes[i+1].C = time.Duration(us) * time.Microsecond
			cl.Nodes[i+1].T = float64(us) * 1e-10
		}
		return cl
	}
	ideal, lam, mpich := cluster.Ideal(), cluster.LAM(), cluster.MPICH()
	table1Groups := [][]int{{0, 8}, {1, 5}, {2, 4, 6, 10, 11, 12, 13, 14, 15}, {3}, {7}, {9}}
	// Under the demo plan node 11, its 2× straggler, is a group of its
	// own, and nodes 7 and 9 share one.
	table1DemoGroups := [][]int{{0, 8}, {1, 5}, {2, 4, 6, 10, 12, 13, 14, 15}, {3}, {7, 9}, {11}}
	cases := []struct {
		name   string
		cl     *cluster.Cluster
		prof   *cluster.TCPProfile
		faults bool // run under faults.Demo
		groups [][]int
		exps   int           // the Report's Experiments,
		reps   int           // Repetitions,
		cost   time.Duration // Cost
		hash   uint64        // and the model's hash
	}{
		{"witness plan", straggle(spec("twotier:2x3"), 2), ideal, false,
			[][]int{{0, 1}, {2}, {3, 4, 5}}, 46, 92, 82260344, 0x65f1c64e6497656d},
		{"witness fallback", fourSpeeds(), ideal, false,
			[][]int{{0}, {1}, {2}, {3}}, 50, 100, 112991456, 0x17b50bfb6b783c7},
		{"identity buckets", straggle(hom(5), 4), ideal, false,
			[][]int{{0, 1, 2, 3}, {4}}, 30, 60, 52330144, 0x17f536566bea9fb9},
		{"table1 ideal", cluster.Table1(), ideal, false,
			table1Groups, 190, 380, 350758340, 0x9b5ea381ff6511bb},
		{"table1 lam", cluster.Table1(), lam, false,
			table1Groups, 190, 380, 350758340, 0x9b5ea381ff6511bb},
		{"table1 mpich", cluster.Table1(), mpich, false,
			table1Groups, 190, 380, 350758340, 0x9b5ea381ff6511bb},
		{"fattree:4 lam", spec("fattree:4"), lam, false,
			[][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}, {14, 15}}, 140, 280, 387902120, 0x24e05111f38eb5cd},
		{"twotier:4x4 lam", spec("twotier:4x4"), lam, false,
			[][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}}, 86, 172, 46652344, 0x7974bfd8435af305},
		{"multicluster:2x4 lam", spec("multicluster:2x4"), lam, false,
			[][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, 42, 84, 53225336, 0xb102d6b8b38891f5},
		{"table1 ideal demo faults", cluster.Table1(), ideal, true,
			table1DemoGroups, 210, 420, 403319304, 0x605f9580b0fbac},
		{"table1 lam demo faults", cluster.Table1(), lam, true,
			table1DemoGroups, 210, 420, 403319304, 0x605f9580b0fbac},
		{"table1 mpich demo faults", cluster.Table1(), mpich, true,
			table1DemoGroups, 210, 420, 403319304, 0x605f9580b0fbac},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mpi.Config{Cluster: tc.cl, Profile: tc.prof, Seed: 1}
			if tc.faults {
				cfg.Faults = faults.Demo(tc.cl.N())
			}
			model, g, rep, err := LMOGrouped(cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			h := lmoxHash(model)
			if !groupsEqual(g, tc.groups) || rep.Experiments != tc.exps || rep.Repetitions != tc.reps || rep.Cost != tc.cost || h != tc.hash {
				t.Errorf("got %#v, %d, %d, %d, %#x; want %v, %d, %d, %d, %#x",
					g.Groups, rep.Experiments, rep.Repetitions, int64(rep.Cost), h,
					tc.groups, tc.exps, tc.reps, int64(tc.cost), tc.hash)
			}
		})
	}
}

// lmoxHash hashes the bits of m's C, t, L and β, row by row.
func lmoxHash(m *models.LMOX) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v []float64) {
		for _, x := range v {
			bits := math.Float64bits(x)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	put(m.C)
	put(m.T)
	for _, row := range m.L {
		put(row)
	}
	for _, row := range m.Beta {
		put(row)
	}
	return h.Sum64()
}
