// Command estimate runs the full estimation tool of the paper's §IV on
// the simulated cluster: it estimates the Hockney, LogP/LogGP, PLogP
// and LMO models from communication experiments, detects the gather
// irregularity region, and prints the recovered parameters next to the
// simulator's ground truth together with the estimation costs (serial
// vs parallel schedules).
//
// With -trace the LMO estimation (including the irregularity scan) is
// recorded as a virtual-time span trace and written in Chrome's
// trace_event format — load it at chrome://tracing or ui.perfetto.dev
// to see the experiment rounds, per-rank collectives and message
// lifecycle as swimlanes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	commperf "repro"
	"repro/internal/cluster"
	"repro/internal/textplot"
)

func main() {
	var (
		mpiName  = flag.String("mpi", "lam", "MPI implementation profile: lam, mpich or ideal")
		seed     = flag.Int64("seed", 1, "TCP randomness seed")
		nodes    = flag.Int("n", 16, "number of nodes (prefix of the Table I cluster)")
		serial   = flag.Bool("serial", false, "use the serial experiment schedule")
		topoSpec = flag.String("topo", "", "homogeneous multi-switch cluster from a topology spec (single:N, twotier:RxP, fattree:K, multicluster:SxP) instead of Table I")
		groups   = flag.Bool("groups", false, "grouped LMO only: detect logical homogeneous groups and estimate per group/link class (skips the other model families and the irregularity scan)")
		jsonOut  = flag.String("json", "", "write the estimated models to this JSON file")
		traceOut = flag.String("trace", "", "write a Chrome trace_event file of the LMO estimation")
	)
	flag.Parse()

	var cl *commperf.Cluster
	if *topoSpec != "" {
		t, err := commperf.ParseTopology(*topoSpec)
		check(err)
		cl = commperf.ClusterFromTopology(t, commperf.NodeSpec{}, commperf.LinkSpec{})
	} else {
		full := commperf.Table1()
		if *nodes < 3 || *nodes > full.N() {
			fmt.Fprintf(os.Stderr, "estimate: -n must be in [3, %d]\n", full.N())
			os.Exit(2)
		}
		cl = full.Prefix(*nodes)
	}
	if *groups && *jsonOut != "" {
		fmt.Fprintln(os.Stderr, "estimate: -json needs the full model suite; drop -groups")
		os.Exit(2)
	}
	prof, err := cluster.ParseProfile(*mpiName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "estimate: unknown -mpi %q\n", *mpiName)
		os.Exit(2)
	}
	sys := commperf.NewSystem(cl, prof, *seed)
	sched := commperf.ScheduleParallel
	if *serial {
		sched = commperf.ScheduleSerial
	}
	opts := []commperf.EstimateOption{commperf.WithSchedule(sched)}

	fmt.Printf("Estimating communication models on %d nodes (%s, %s schedule)\n\n",
		cl.N(), prof.Name, sched)

	var total time.Duration
	var hom *commperf.Hockney
	var het *commperf.HetHockney
	var estLG, estPL *commperf.Estimation
	if !*groups {
		// Heterogeneous Hockney.
		estHet, err := sys.Estimate(commperf.ModelHetHockney, opts...)
		check(err)
		het = estHet.HetHockney
		hom = het.Averaged()
		fmt.Printf("Hockney (averaged homogeneous): %v\n", hom)
		fmt.Printf("  het-Hockney: %d experiments, %d repetitions, cost %v\n\n",
			estHet.Report.Experiments, estHet.Report.Repetitions, estHet.Report.Cost.Round(time.Millisecond))

		// LogP / LogGP.
		var err2 error
		estLG, err2 = sys.Estimate(commperf.ModelLogP, opts...)
		check(err2)
		fmt.Printf("%v\n%v\n", estLG.LogP, estLG.LogGP)
		fmt.Printf("  cost %v\n\n", estLG.Report.Cost.Round(time.Millisecond))

		// PLogP.
		estPL, err2 = sys.Estimate(commperf.ModelPLogP, opts...)
		check(err2)
		fmt.Printf("%v\n  g knots: %v\n  cost %v\n\n",
			estPL.PLogP, estPL.PLogP.G, estPL.Report.Cost.Round(time.Millisecond))
		total = estHet.Report.Cost + estLG.Report.Cost + estPL.Report.Cost
	}

	// LMO, with the gather irregularity scan folded in (or, with
	// -groups, the grouped procedure). The observer (if any) goes here:
	// the LMO estimation is the paper's headline procedure and the
	// trace shows its phases end to end.
	lmoOpts := opts
	if *groups {
		lmoOpts = append(lmoOpts, commperf.WithLogicalGroups())
	}
	var tr *commperf.Trace
	if *traceOut != "" {
		tr = commperf.NewTrace()
		lmoOpts = append(lmoOpts, commperf.WithObserver(tr))
	}
	estLMO, err := sys.Estimate(commperf.ModelLMO, lmoOpts...)
	check(err)
	lmo := estLMO.LMO
	if *groups {
		fmt.Printf("LMO (grouped): %d logical groups, %d experiments, %d repetitions, cost %v\n",
			estLMO.Groups.NumGroups(), estLMO.Report.Experiments,
			estLMO.Report.Repetitions, estLMO.Report.Cost.Round(time.Millisecond))
	} else {
		fmt.Printf("LMO (extended, 6-parameter): %d experiments, %d repetitions, cost %v (incl. irregularity scan)\n",
			estLMO.Report.Experiments, estLMO.Report.Repetitions, estLMO.Report.Cost.Round(time.Millisecond))
	}
	rows := [][]string{{"node", "model", "C_i est", "C_i true", "t_i est", "t_i true"}}
	const maxRows = 16
	for i, nd := range cl.Nodes {
		if i == maxRows {
			rows = append(rows, []string{fmt.Sprintf("(+%d more)", len(cl.Nodes)-maxRows), "", "", "", "", ""})
			break
		}
		rows = append(rows, []string{
			nd.Name, short(nd.Model),
			fmt.Sprintf("%.1fµs", lmo.C[i]*1e6), fmt.Sprintf("%.1fµs", float64(nd.C.Microseconds())),
			fmt.Sprintf("%.2gns/B", lmo.T[i]*1e9), fmt.Sprintf("%.2gns/B", nd.T*1e9),
		})
	}
	fmt.Println(textplot.Table(rows))
	l01 := cl.Links[0][1]
	fmt.Printf("link (0,1): L est %.1fµs (true %.1fµs), β est %.3g B/s (true %.3g B/s)\n\n",
		lmo.L[0][1]*1e6, float64(l01.L.Microseconds()), lmo.Beta[0][1], l01.Beta)

	if *groups {
		for gi, members := range estLMO.Groups.Groups {
			if gi == maxRows {
				fmt.Printf("  (+%d more groups)\n", estLMO.Groups.NumGroups()-maxRows)
				break
			}
			fmt.Printf("  group %d: %d nodes %v\n", gi, len(members), head(members, 8))
		}
	} else {
		// Irregularity detection (attached to the LMO model by Estimate).
		irr := lmo.Gather
		if irr.Valid() {
			fmt.Printf("gather irregularity: M1=%d B (true %d), M2=%d B (true %d)\n",
				irr.M1, prof.M1, irr.M2, prof.M2)
			fmt.Printf("  escalation modes: %v, per-op probability %.2f→%.2f\n", irr.EscModes, irr.ProbLow, irr.ProbHigh)
		} else {
			fmt.Println("gather irregularity: none detected")
		}
	}

	total += estLMO.Report.Cost
	fmt.Printf("\ntotal estimation cost (virtual time on the cluster): %v\n", total.Round(time.Millisecond))

	if tr != nil {
		f, err := os.Create(*traceOut)
		check(err)
		check(commperf.WriteChromeTrace(f, tr, func(track int) string {
			if track == commperf.GlobalTrack {
				return "estimation"
			}
			if track >= 0 && track < len(cl.Nodes) {
				return fmt.Sprintf("%d %s", track, cl.Nodes[track].Name)
			}
			return fmt.Sprintf("track %d", track)
		}))
		check(f.Close())
		fmt.Printf("LMO estimation trace written to %s (%d spans; open at chrome://tracing)\n",
			*traceOut, len(tr.Spans()))
	}

	if *jsonOut != "" {
		clusterName := "table1"
		if *topoSpec != "" {
			clusterName = *topoSpec
		}
		mf := commperf.NewModelFile(hom, het, estLG.LogP, estLG.LogGP, estPL.PLogP, lmo)
		mf.Meta = &commperf.ModelMeta{
			Cluster: clusterName, Nodes: cl.N(), Profile: prof.Name, Seed: *seed,
			Est:  sched.String(),
			Tool: "cmd/estimate",
		}
		data, err := mf.Marshal()
		check(err)
		check(os.WriteFile(*jsonOut, data, 0o644))
		fmt.Printf("models written to %s\n", *jsonOut)
	}
}

func head(xs []int, n int) []int {
	if len(xs) <= n {
		return xs
	}
	return xs[:n]
}

func short(s string) string {
	if len(s) > 28 {
		return s[:28]
	}
	return s
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "estimate: %v\n", err)
		os.Exit(1)
	}
}
