package experiment

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/topo"
)

// TopoExp exercises the hierarchical-topology extension: on a two-tier
// rack cluster, a fat-tree and a WAN-joined multi-cluster it runs the
// grouped LMO estimation (logical-group detection plus per-group and
// per-link-class experiments), then scores the collapsed model's
// round-trip predictions against the simulation, one representative
// node pair per route tier.
func TopoExp(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		ID:    "topo",
		Title: "Extension: multi-switch topologies, grouped LMO vs simulation",
	}
	sizes := []int{4 << 10, 64 << 10}
	for _, spec := range []string{"twotier:4x4", "fattree:4", "multicluster:2x4"} {
		t, err := topo.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		cl := cluster.FromTopology(t, cluster.NodeSpec{}, cluster.LinkSpec{})
		mcfg := mpi.Config{Cluster: cl, Profile: cfg.Profile, Seed: cfg.Seed, Faults: cfg.Faults}
		model, groups, estRep, err := estimate.LMOGrouped(mcfg, cfg.Est)
		if err != nil {
			return nil, fmt.Errorf("%s: grouped estimation: %w", spec, err)
		}

		// One representative pair per route tier, all anchored at node 0
		// (every tier of these topologies is reachable from it).
		type tier struct {
			pair [2]int
			name string
		}
		var tiers []tier
		seen := map[[2]int]bool{}
		for j := 1; j < cl.N(); j++ {
			rt := t.Route(0, j)
			key := [2]int{int(rt.MaxClass), len(rt.Hops)}
			if seen[key] {
				continue
			}
			seen[key] = true
			name := "same switch"
			if len(rt.Hops) > 0 {
				name = fmt.Sprintf("%d %s hops", len(rt.Hops), rt.MaxClass)
			}
			tiers = append(tiers, tier{[2]int{0, j}, name})
		}

		rows := [][]string{{"tier", "pair", "size", "predicted RTT", "simulated RTT", "error"}}
		for _, ti := range tiers {
			a, b := ti.pair[0], ti.pair[1]
			for _, m := range sizes {
				var meas mpib.Measurement
				msg := make([]byte, m)
				_, err := mpi.Run(mcfg, func(r *mpi.Rank) {
					meas = mpib.Measure(r, a, mpib.RootTiming, cfg.Est.Mpib, func() {
						switch r.Rank() {
						case a:
							r.Send(b, 0, msg)
							r.Recv(b, 0)
						case b:
							r.Recv(a, 0)
							r.Send(a, 0, msg)
						}
					})
				})
				if err != nil {
					return nil, fmt.Errorf("%s: observing pair %d-%d: %w", spec, a, b, err)
				}
				pred := model.P2P(a, b, m) + model.P2P(b, a, m)
				obs := meas.Mean
				rows = append(rows, []string{
					ti.name,
					fmt.Sprintf("%d-%d", a, b),
					fmt.Sprintf("%dK", m>>10),
					fmt.Sprintf("%.0fµs", 1e6*pred),
					fmt.Sprintf("%.0fµs", 1e6*obs),
					fmt.Sprintf("%+.1f%%", 100*(pred-obs)/obs),
				})
			}
		}
		rep.Tables = append(rep.Tables, TableBlock{
			Caption: fmt.Sprintf("%s (%d nodes): per-tier round-trip accuracy", spec, cl.N()),
			Rows:    rows,
		})
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: %d logical groups detected, %d experiments, %s virtual estimation cost",
			spec, groups.NumGroups(), estRep.Experiments,
			estRep.Cost.Round(time.Millisecond)))
	}
	rep.Notes = append(rep.Notes,
		"grouped estimation measures one triplet per logical group and one pair per inter-group link class,",
		"collapsing the O(n²·triplets) full procedure; at fat-tree k=16 (1024 nodes) it finishes in seconds.",
		"the 64K undershoot is uniform across tiers (same-switch included): 64K crosses the profile's",
		"escalation threshold, which the linear LMO (estimated at 32K) cannot follow — the Figs 4/5 gap.")
	return rep, nil
}
