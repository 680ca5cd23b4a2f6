// Command estimate runs the full estimation tool of the paper's §IV on
// the simulated cluster: it estimates the Hockney, LogP/LogGP, PLogP
// and LMO models from communication experiments, detects the gather
// irregularity region, and prints the recovered parameters next to the
// simulator's ground truth together with the estimation costs (serial
// vs parallel schedules). The models come from one estimation of the
// model family "all", which -json writes as a model file; -groups runs
// the grouped LMO procedure instead.
//
// With -trace the whole estimation is recorded as a virtual-time span
// trace and written in Chrome's trace_event format — load it at
// chrome://tracing or ui.perfetto.dev to see the experiment rounds,
// per-rank collectives and message lifecycle as swimlanes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	commperf "repro"
	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/textplot"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	mpi, topo, json, trace string
	seed                   int64
	nodes                  int
	serial, groups         bool
}

// run executes the command and returns its exit code: 0 on success, 2
// on a usage error, 1 when the estimation or writing a file fails.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.mpi, "mpi", "lam", "MPI implementation profile: lam, mpich or ideal")
	fs.Int64Var(&o.seed, "seed", 1, "TCP randomness seed")
	fs.IntVar(&o.nodes, "n", 16, "number of nodes (prefix of the Table I cluster)")
	fs.BoolVar(&o.serial, "serial", false, "use the serial experiment schedule")
	fs.StringVar(&o.topo, "topo", "", "homogeneous multi-switch cluster from a topology spec (single:N, twotier:RxP, fattree:K, multicluster:SxP) instead of Table I")
	fs.BoolVar(&o.groups, "groups", false, "grouped LMO only: detect logical homogeneous groups and estimate per group/link class (skips the other model families and the irregularity scan)")
	fs.StringVar(&o.json, "json", "", "write the estimated models to this JSON file")
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace_event file of the whole estimation")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cl, prof, err := o.platform()
	if err != nil {
		fmt.Fprintf(stderr, "estimate: %v\n", err)
		return 2
	}
	if err := o.estimate(stdout, cl, prof); err != nil {
		fmt.Fprintf(stderr, "estimate: %v\n", err)
		return 1
	}
	return 0
}

// platform checks the flags and builds the cluster and profile they
// name.
func (o options) platform() (*cluster.Cluster, *cluster.TCPProfile, error) {
	if o.groups && o.json != "" {
		return nil, nil, fmt.Errorf("-json needs the full model suite; drop -groups")
	}
	prof, err := cluster.ParseProfile(o.mpi)
	if err != nil {
		return nil, nil, fmt.Errorf("unknown -mpi %q", o.mpi)
	}
	if o.topo != "" {
		t, err := commperf.ParseTopology(o.topo)
		if err != nil {
			return nil, nil, err
		}
		return commperf.ClusterFromTopology(t, commperf.NodeSpec{}, commperf.LinkSpec{}), prof, nil
	}
	full := commperf.Table1()
	if o.nodes < 3 || o.nodes > full.N() {
		return nil, nil, fmt.Errorf("-n must be in [3, %d]", full.N())
	}
	return full.Prefix(o.nodes), prof, nil
}

// estimate runs the estimation on cl under prof, prints it to stdout
// and writes the files the flags ask for.
func (o options) estimate(stdout io.Writer, cl *cluster.Cluster, prof *cluster.TCPProfile) error {
	sched := commperf.ScheduleParallel
	if o.serial {
		sched = commperf.ScheduleSerial
	}
	var tr *commperf.Trace
	if o.trace != "" {
		tr = commperf.NewTrace()
	}
	fmt.Fprintf(stdout, "Estimating communication models on %d nodes (%s, %s schedule)\n\n",
		cl.N(), prof.Name, sched)

	var (
		lmo    *models.LMOX
		groups [][]int
		m      *estimate.Models
		rep    estimate.Report
	)
	if o.groups {
		opts := []commperf.EstimateOption{commperf.WithSchedule(sched), commperf.WithLogicalGroups()}
		if tr != nil {
			opts = append(opts, commperf.WithObserver(tr))
		}
		est, err := commperf.NewSystem(cl, prof, o.seed).Estimate(commperf.ModelLMO, opts...)
		if err != nil {
			return err
		}
		lmo, groups, rep = est.LMO, est.Groups.Groups, est.Report
		fmt.Fprintf(stdout, "LMO (grouped): %d logical groups, %d experiments, %d repetitions, cost %v\n",
			len(groups), rep.Experiments, rep.Repetitions, rep.Cost.Round(time.Millisecond))
	} else {
		cfg := mpi.Config{Cluster: cl, Profile: prof, Seed: o.seed}
		var err error
		m, rep, err = estimate.Family(nil, cfg, "all", 0, 20, estimate.Options{Parallel: !o.serial, Obs: tr})
		if err != nil {
			return err
		}
		lmo = m.LMO
		fmt.Fprintf(stdout, "Hockney (averaged homogeneous): %v\n\n", m.Hom)
		fmt.Fprintf(stdout, "%v\n%v\n\n", m.LogP, m.LogGP)
		fmt.Fprintf(stdout, "%v\n  g knots: %v\n\n", m.PLogP, m.PLogP.G)
		fmt.Fprintln(stdout, "LMO (extended, 6-parameter):")
	}
	printLMO(stdout, cl, lmo)

	if o.groups {
		for gi, members := range groups {
			if gi == maxRows {
				fmt.Fprintf(stdout, "  (+%d more groups)\n", len(groups)-maxRows)
				break
			}
			fmt.Fprintf(stdout, "  group %d: %d nodes %s\n", gi, len(members), head(members, 8))
		}
	} else {
		// Irregularity detection (the family attaches it to the LMO model).
		if irr := lmo.Gather; irr.Valid() {
			fmt.Fprintf(stdout, "gather irregularity: M1=%d B (true %d), M2=%d B (true %d)\n",
				irr.M1, prof.M1, irr.M2, prof.M2)
			fmt.Fprintf(stdout, "  escalation modes: %v, per-op probability %.2f→%.2f\n", irr.EscModes, irr.ProbLow, irr.ProbHigh)
		} else {
			fmt.Fprintln(stdout, "gather irregularity: none detected")
		}
		fmt.Fprintln(stdout, "\nestimation cost by procedure (virtual time on the cluster):")
		procs := make([]string, 0, len(m.Costs))
		for name := range m.Costs {
			procs = append(procs, name)
		}
		sort.Strings(procs)
		for _, name := range procs {
			fmt.Fprintf(stdout, "  %-18s %v\n", name, m.Costs[name].Round(time.Millisecond))
		}
		fmt.Fprintf(stdout, "  %d experiments, %d repetitions in all\n", rep.Experiments, rep.Repetitions)
	}
	fmt.Fprintf(stdout, "\ntotal estimation cost (virtual time on the cluster): %v\n", rep.Cost.Round(time.Millisecond))

	if tr != nil {
		if err := writeTrace(o.trace, cl, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "estimation trace written to %s (%d spans; open at chrome://tracing)\n",
			o.trace, len(tr.Spans()))
	}
	if o.json != "" {
		clusterName := "table1"
		if o.topo != "" {
			clusterName = o.topo
		}
		mf := m.File()
		mf.Meta = &models.Meta{
			Cluster: clusterName, Nodes: cl.N(), Profile: prof.Name, Seed: o.seed,
			Est:  sched.String(),
			Tool: "cmd/estimate",
		}
		data, err := mf.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.json, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "models written to %s\n", o.json)
	}
	return nil
}

// maxRows bounds the node and group listings.
const maxRows = 16

// printLMO prints the estimated processor parameters next to the
// cluster's ground truth, and one link's.
func printLMO(stdout io.Writer, cl *cluster.Cluster, lmo *models.LMOX) {
	rows := [][]string{{"node", "model", "C_i est", "C_i true", "t_i est", "t_i true"}}
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
	fmt.Fprintln(stdout, textplot.Table(rows))
	l01 := cl.Links[0][1]
	fmt.Fprintf(stdout, "link (0,1): L est %.1fµs (true %.1fµs), β est %.3g B/s (true %.3g B/s)\n\n",
		lmo.L[0][1]*1e6, float64(l01.L.Microseconds()), lmo.Beta[0][1], l01.Beta)
}

// writeTrace writes tr to path in Chrome's trace_event format, one
// swimlane per node.
func writeTrace(path string, cl *cluster.Cluster, tr *commperf.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = commperf.WriteChromeTrace(f, tr, func(track int) string {
		if track == commperf.GlobalTrack {
			return "estimation"
		}
		if track >= 0 && track < len(cl.Nodes) {
			return fmt.Sprintf("%d %s", track, cl.Nodes[track].Name)
		}
		return fmt.Sprintf("track %d", track)
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// head prints at most n of xs, marking the cut.
func head(xs []int, n int) string {
	if len(xs) <= n {
		return fmt.Sprint(xs)
	}
	return fmt.Sprintf("%s … +%d more]", strings.TrimSuffix(fmt.Sprint(xs[:n]), "]"), len(xs)-n)
}

func short(s string) string {
	if len(s) > 28 {
		return s[:28]
	}
	return s
}
