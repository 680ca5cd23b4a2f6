package estimate

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/topo"
)

func groupCfg(cl *cluster.Cluster) mpi.Config {
	return mpi.Config{Cluster: cl, Profile: cluster.Ideal(), Seed: 1}
}

// straggle makes node i markedly slower than the Table I-class default.
func straggle(cl *cluster.Cluster, i int) *cluster.Cluster {
	cl.Nodes[i].C = 95 * time.Microsecond
	cl.Nodes[i].T = 1.0e-8
	return cl
}

func groupsEqual(g *Grouping, want [][]int) bool {
	if len(g.Groups) != len(want) {
		return false
	}
	for i, members := range g.Groups {
		if len(members) != len(want[i]) {
			return false
		}
		for j, m := range members {
			if m != want[i][j] {
				return false
			}
		}
	}
	return true
}

func TestDetectGroupsTable(t *testing.T) {
	twoTier := func() *cluster.Cluster {
		return cluster.FromTopology(topo.TwoTier(2, 3, topo.DefaultUplink()),
			cluster.NodeSpec{}, cluster.LinkSpec{})
	}
	cases := []struct {
		name string
		cl   *cluster.Cluster
		opt  Options
		want [][]int
	}{
		{"homogeneous single switch",
			cluster.Homogeneous(6, cluster.DefaultTopoNode(), cluster.DefaultTopoAccess()),
			Options{},
			[][]int{{0, 1, 2, 3, 4, 5}}},
		{"two racks hinted", twoTier(), Options{},
			[][]int{{0, 1, 2}, {3, 4, 5}}},
		{"two racks blind", twoTier(), Options{GroupBlind: true},
			[][]int{{0, 1, 2}, {3, 4, 5}}},
		{"straggler singleton",
			straggle(cluster.Homogeneous(5, cluster.DefaultTopoNode(), cluster.DefaultTopoAccess()), 4),
			Options{},
			[][]int{{0, 1, 2, 3}, {4}}},
		{"straggler inside rack hinted", straggle(twoTier(), 2), Options{},
			[][]int{{0, 1}, {2}, {3, 4, 5}}},
		{"straggler is the reference", straggle(twoTier(), 0), Options{},
			[][]int{{0}, {1, 2}, {3, 4, 5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _, err := DetectGroups(groupCfg(tc.cl), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !groupsEqual(g, tc.want) {
				t.Fatalf("groups = %v, want %v", g.Groups, tc.want)
			}
			for i, gi := range g.Of {
				found := false
				for _, m := range g.Groups[gi] {
					if m == i {
						found = true
					}
				}
				if !found {
					t.Fatalf("Of[%d] = %d but node absent from that group", i, gi)
				}
			}
		})
	}
}

// The property the collapse rests on: on a homogeneous cluster the
// grouped procedure and the full per-pair procedure agree.
func TestGroupedMatchesPerPairOnHomogeneous(t *testing.T) {
	cl := cluster.Homogeneous(6, cluster.DefaultTopoNode(), cluster.DefaultTopoAccess())
	full, _, err := LMOX(groupCfg(cl), Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	grouped, g, _, err := LMOGrouped(groupCfg(cl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 1 {
		t.Fatalf("homogeneous cluster split into %d groups", g.NumGroups())
	}
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if want == 0 {
			return
		}
		if rel := (got - want) / want; rel > tol || rel < -tol {
			t.Errorf("%s: grouped %.4g vs per-pair %.4g (%.2f%% off)", name, got, want, 100*rel)
		}
	}
	for i := 0; i < cl.N(); i++ {
		within("C", grouped.C[i], full.C[i], 0.03)
		within("T", grouped.T[i], full.T[i], 0.03)
		for j := i + 1; j < cl.N(); j++ {
			within("L", grouped.L[i][j], full.L[i][j], 0.03)
			within("Beta", grouped.Beta[i][j], full.Beta[i][j], 0.03)
		}
	}
}

// The headline scale target: a 1024-node fat-tree estimates end to end
// in seconds and recovers the ground truth per tier.
func TestFatTree1024GroupedEstimation(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node estimation in -short mode")
	}
	fabric := topo.DefaultUplink()
	cl := cluster.FromTopology(topo.FatTree(16, fabric), cluster.NodeSpec{}, cluster.LinkSpec{})
	if cl.N() != 1024 {
		t.Fatalf("fat-tree k=16 has %d nodes", cl.N())
	}
	opt := Options{Mpib: mpib.Options{MinReps: 3, MaxReps: 3}}
	model, g, rep, err := LMOGrouped(groupCfg(cl), opt)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGroups() != 128 {
		t.Fatalf("detected %d groups, want 128 leaf groups", g.NumGroups())
	}
	for gi, members := range g.Groups {
		if len(members) != 8 {
			t.Fatalf("group %d has %d members, want 8", gi, len(members))
		}
	}
	t.Logf("1024-node estimation: %d experiments, %d repetitions, %v virtual cost",
		rep.Experiments, rep.Repetitions, rep.Cost)

	node := cluster.DefaultTopoNode()
	access := cluster.DefaultTopoAccess()
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if rel := (got - want) / want; rel > tol || rel < -tol {
			t.Errorf("%s: estimated %.4g, ground truth %.4g (%.2f%% off)", name, got, want, 100*rel)
		}
	}
	within("C", model.C[0], node.C.Seconds(), 0.05)
	within("t", model.T[0], node.T, 0.05)
	// Same leaf (0 hops), same pod (2 hops: hosts 0 and 8), cross pod
	// (4 hops: hosts 0 and 64). Ground truth adds the hop latencies and
	// serializes the rates.
	hop := fabric.L.Seconds()
	hopInvB := 1 / fabric.Beta
	accessL, accessInvB := access.L.Seconds(), 1/access.Beta
	within("intra L", model.L[0][1], accessL, 0.05)
	within("intra beta", model.Beta[0][1], access.Beta, 0.05)
	within("2-hop L", model.L[0][8], accessL+2*hop, 0.05)
	within("2-hop beta", model.Beta[0][8], 1/(accessInvB+2*hopInvB), 0.05)
	within("4-hop L", model.L[0][64], accessL+4*hop, 0.05)
	within("4-hop beta", model.Beta[0][64], 1/(accessInvB+4*hopInvB), 0.05)
	// The collapsed prediction drives the model end to end.
	if p := model.P2P(0, 64, 32<<10); p <= 0 {
		t.Fatalf("P2P through the fabric = %v", p)
	}
}

// TestGroupedEstimationAllocsPerExperiment is the allocation-scaling
// guard of the estimation harness: its host cost is a function of the
// experiments, not of experiments × ranks. Grouped estimation with
// repetitions fixed at 3 must stay within 64 allocations and 16 KiB
// per experiment on a 16-host and on a 128-host fat-tree alike. A
// harness that keeps per-rank copies of a round's samples, rebuilds
// every experiment on every rank, or allocates a payload per send grows
// past both bounds with the rank count.
func TestGroupedEstimationAllocsPerExperiment(t *testing.T) {
	const maxAllocs, maxBytes = 64, 16 << 10
	opt := Options{Mpib: mpib.Options{MinReps: 3, MaxReps: 3}}
	for _, k := range []int{4, 8} {
		cl := cluster.FromTopology(topo.FatTree(k, topo.DefaultUplink()), cluster.NodeSpec{}, cluster.LinkSpec{})
		if _, _, _, err := LMOGrouped(groupCfg(cl), opt); err != nil { // warm up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, rep, err := LMOGrouped(groupCfg(cl), opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		e := float64(rep.Experiments)
		allocs := float64(after.Mallocs-before.Mallocs) / e
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / e
		t.Logf("fat-tree k=%d (%d hosts): %d experiments, %.1f allocs and %.0f B per experiment",
			k, cl.N(), rep.Experiments, allocs, bytes)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("fat-tree k=%d (%d hosts): %.1f allocs and %.0f B per experiment, want at most %d and %d",
				k, cl.N(), allocs, bytes, maxAllocs, maxBytes)
		}
	}
}
