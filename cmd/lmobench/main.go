// Command lmobench reproduces the paper's evaluation: it runs any of
// the figure/table experiments on the simulated cluster and prints the
// observation and model-prediction series as text charts and tables,
// optionally exporting CSV.
//
// With -seeds N the experiments run as a simulation campaign: every
// experiment is repeated under N consecutive seeds across a bounded
// worker pool (-parallel K), and the report shows the seed-averaged
// series with mean ± 95% CI of every metric instead of a single run.
//
// Usage:
//
//	lmobench -exp fig4                 # one experiment
//	lmobench -exp all                  # the whole evaluation
//	lmobench -exp fig5 -mpi mpich      # under the MPICH profile
//	lmobench -exp fig4 -csv fig4.csv   # export the series
//	lmobench -exp fig4 -seeds 10       # seed sweep with mean ± CI
//	lmobench -exp fig4 -seeds 10 -gantt g.json  # campaign Gantt trace
//	lmobench -list                     # list experiments
//
// For profiling the simulation kernel, -cpuprofile and -memprofile
// write pprof profiles of the run:
//
//	lmobench -exp table1 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/autotune"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/textplot"
	"repro/internal/topo"
	"repro/internal/tuned"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command and returns its exit code: 0 on success, 1
// when an experiment fails, 2 on a usage or input error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lmobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id (fig1..fig7, table1, table2, estcost, irreg, faults, ...; see -list) or 'all'")
		mpiName  = fs.String("mpi", "lam", "MPI implementation profile: lam, mpich or ideal")
		seed     = fs.Int64("seed", 1, "TCP randomness seed")
		root     = fs.Int("root", 0, "collective root rank")
		reps     = fs.Int("reps", 10, "repetitions per observation point (at least 1)")
		csvPath  = fs.String("csv", "", "write the experiment's series to this CSV file")
		list     = fs.Bool("list", false, "list available experiments and exit")
		hetLink  = fs.Bool("hetlinks", false, "use per-pair link variation (Table1Hetero)")
		clPath   = fs.String("cluster", "", "JSON cluster description to use instead of Table I")
		topoSpec = fs.String("topo", "", "homogeneous multi-switch cluster from a topology spec (single:N, twotier:RxP, fattree:K, multicluster:SxP) instead of Table I")
		seeds    = fs.Int("seeds", 1, "sweep this many consecutive seeds (starting at -seed) as a campaign and report mean ± CI")
		parallel = fs.Int("parallel", 0, "campaign worker count for -seeds sweeps (0: GOMAXPROCS)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf  = fs.String("memprofile", "", "write a heap profile at exit to this file")
		gantt    = fs.String("gantt", "", "with -seeds > 1: write the campaign's task Gantt chart as a Chrome trace_event file")
		tunedTab = fs.String("tuned", "", "decision-table file for -exp tune: when it exists the tuner answers from it (no re-tuning); otherwise the freshly tuned table is written there")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "lmobench: "+format+"\n", a...)
		return code
	}
	if *reps < 1 {
		return fail(2, "-reps %d: an observation needs at least one repetition", *reps)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(2, "%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(2, "%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "lmobench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "lmobench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, r := range experiment.Runners() {
			fmt.Fprintf(stdout, "  %-8s %s\n", r.ID, r.Brief)
		}
		fmt.Fprintf(stdout, "  %-8s %s\n", "tune", "model-guided collective auto-tuning: prune + simulate, decision table, gather-splitting win")
		return 0
	}

	cfg := experiment.Default()
	cfg.Seed = *seed
	cfg.Root = *root
	cfg.ObsReps = *reps
	if *hetLink {
		cfg.Cluster = cluster.Table1Hetero()
	}
	if *clPath != "" {
		data, err := os.ReadFile(*clPath)
		if err != nil {
			return fail(2, "%v", err)
		}
		cl, err := cluster.FromJSON(data)
		if err != nil {
			return fail(2, "%v", err)
		}
		cfg.Cluster = cl
	}
	if *topoSpec != "" {
		t, err := topo.ParseSpec(*topoSpec)
		if err != nil {
			return fail(2, "%v", err)
		}
		cfg.Cluster = cluster.FromTopology(t, cluster.NodeSpec{}, cluster.LinkSpec{})
	}
	prof, err := cluster.ParseProfile(*mpiName)
	if err != nil {
		return fail(2, "unknown -mpi %q (lam, mpich, ideal)", *mpiName)
	}
	cfg.Profile = prof

	if *exp == "tune" {
		if *seeds > 1 {
			return fail(2, "-exp tune runs its own validation campaign; -seeds sweeps are not supported")
		}
		return runTune(stdout, stderr, cfg, *tunedTab, *csvPath)
	}
	if *tunedTab != "" {
		return fail(2, "-tuned only applies to -exp tune")
	}

	runners := experiment.Runners()
	if *exp != "all" {
		r := experiment.Lookup(*exp)
		if r == nil {
			return fail(2, "unknown experiment %q; use -list", *exp)
		}
		runners = []experiment.Runner{*r}
	}

	if *seeds > 1 {
		clusterName := "table1"
		if *hetLink {
			clusterName = "table1hetero"
		}
		if *clPath != "" {
			clusterName = *clPath
		}
		if *topoSpec != "" {
			clusterName = *topoSpec
		}
		return runCampaign(stdout, stderr, cfg, runners, clusterName, *seed, *seeds, *parallel, *gantt)
	}
	if *gantt != "" {
		return fail(2, "-gantt requires a -seeds sweep (campaign mode)")
	}

	// Experiments are independent simulations; run them concurrently,
	// one worker per runner, and print the reports in catalogue order.
	reports := make([]*experiment.Report, len(runners))
	out := campaign.Each(context.Background(), len(runners), campaign.Options{Parallel: len(runners)}, func(i int) campaign.Result {
		rep, err := runners[i].Run(cfg)
		if err != nil {
			return campaign.Result{Err: err.Error()}
		}
		reports[i] = rep
		return campaign.Result{}
	})
	for i, r := range runners {
		res := out.Results[i]
		if res.Err != "" {
			return fail(1, "%s: %s", r.ID, res.Err)
		}
		rep := reports[i]
		experiment.Render(stdout, rep)
		fmt.Fprintf(stdout, "(%s completed in %v wall-clock)\n\n", r.ID, res.Elapsed.Round(time.Millisecond))

		if *csvPath != "" && len(rep.Series) > 0 {
			path := *csvPath
			if *exp == "all" {
				path = rep.ID + "_" + path
			}
			if err := writeCSV(path, rep); err != nil {
				return fail(1, "%v", err)
			}
			fmt.Fprintf(stdout, "(series written to %s)\n\n", path)
		}
	}
	return 0
}

// writeCSV writes a report's series to the CSV file at path.
func writeCSV(path string, rep *experiment.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiment.WriteCSV(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTune runs the model-guided auto-tuning experiment: estimate the
// LMO model, prune the candidate space with its closed-form
// predictions, validate the survivors in the event simulator, and
// render the predicted-vs-simulated makespan report with the
// gather-splitting comparison. With tablePath naming an existing file
// the tuner answers from that decision table instead of re-tuning;
// otherwise the fresh table is written there. It returns run's exit
// code.
func runTune(stdout, stderr io.Writer, cfg experiment.Config, tablePath, csvPath string) int {
	start := time.Now()
	if tablePath != "" {
		if data, err := os.ReadFile(tablePath); err == nil {
			tbl, err := tuned.UnmarshalTable(data)
			if err != nil {
				fmt.Fprintf(stderr, "lmobench: %s: %v\n", tablePath, err)
				return 2
			}
			fmt.Fprintf(stdout, "answering from decision table %s (no re-tuning):\n\n", tablePath)
			renderDecisionTable(stdout, tbl)
			return 0
		}
		// Missing file: tune below and write the result there.
	}
	rep, res, err := autotune.Experiment(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "lmobench: tune: %v\n", err)
		return 1
	}
	experiment.Render(stdout, rep)
	fmt.Fprintf(stdout, "(tune completed in %v wall-clock: %d-candidate space per cell, %d simulator validations)\n\n",
		time.Since(start).Round(time.Millisecond), res.Candidates, res.Simulated)
	if tablePath != "" {
		data, err := res.Table.Marshal()
		if err == nil {
			err = os.WriteFile(tablePath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "lmobench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "(decision table written to %s)\n\n", tablePath)
	}
	if csvPath != "" && len(rep.Series) > 0 {
		if err := writeCSV(csvPath, rep); err != nil {
			fmt.Fprintf(stderr, "lmobench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "(series written to %s)\n\n", csvPath)
	}
	return 0
}

// renderDecisionTable prints a decision table's rules.
func renderDecisionTable(w io.Writer, tbl *tuned.Table) {
	if m := tbl.Meta; m != nil {
		fmt.Fprintf(w, "tuned for %s (%d nodes) under %s, seed %d\n\n", m.Cluster, m.Nodes, m.Profile, m.Seed)
	}
	rows := [][]string{{"op", "range (bytes)", "shape", "predicted (s)", "simulated (s)"}}
	for _, r := range tbl.Rules {
		hi := "inf"
		if r.MaxBytes > 0 {
			hi = fmt.Sprint(r.MaxBytes)
		}
		rows = append(rows, []string{string(r.Op), fmt.Sprintf("[%d, %s)", r.MinBytes, hi),
			r.String(), fmt.Sprintf("%.6f", r.PredictedS), fmt.Sprintf("%.6f", r.SimulatedS)})
	}
	fmt.Fprintln(w, textplot.Table(rows))
}

// runCampaign sweeps the experiments over nSeeds consecutive seeds
// through the campaign engine and renders the seed-aggregated view:
// mean series and mean ± 95% CI of every metric. It returns run's exit
// code.
func runCampaign(stdout, stderr io.Writer, cfg experiment.Config, runners []experiment.Runner, clusterName string, seed int64, nSeeds, parallel int, gantt string) int {
	g := campaign.Grid{
		Profiles: []*cluster.TCPProfile{cfg.Profile},
		Clusters: []campaign.ClusterSpec{{Name: clusterName, Cluster: cfg.Cluster}},
		ObsReps:  cfg.ObsReps,
		Root:     cfg.Root,
	}
	for s := int64(0); s < int64(nSeeds); s++ {
		g.Seeds = append(g.Seeds, seed+s)
	}
	for _, r := range runners {
		g.Targets = append(g.Targets, campaign.Target{Kind: campaign.Experiment, ID: r.ID})
	}

	var tr *obs.Trace
	if gantt != "" {
		tr = obs.NewTrace()
	}
	start := time.Now()
	out, err := campaign.Run(context.Background(), g, campaign.Options{Parallel: parallel, Obs: tr})
	if err != nil {
		fmt.Fprintf(stderr, "lmobench: %v\n", err)
		return 2
	}
	if tr != nil {
		f, err := os.Create(gantt)
		if err != nil {
			fmt.Fprintf(stderr, "lmobench: %v\n", err)
			return 2
		}
		// Campaign tracks are task indices, and Results is ordered by
		// task index; label each lane with its unit of work.
		names := map[int]string{}
		for i, res := range out.Results {
			names[i] = fmt.Sprintf("%s seed=%d", res.Target, res.Seed)
		}
		werr := obs.WriteChromeTrace(f, tr, func(track int) string {
			if n, ok := names[track]; ok {
				return n
			}
			return fmt.Sprintf("task %d", track)
		})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "lmobench: %v\n", werr)
			return 2
		}
		fmt.Fprintf(stdout, "campaign Gantt trace written to %s (%d spans; open at chrome://tracing)\n\n",
			gantt, len(tr.Spans()))
	}
	for _, res := range out.Results {
		if res.Err != "" {
			fmt.Fprintf(stderr, "lmobench: %s seed %d: %s\n", res.Target, res.Seed, res.Err)
		}
	}

	for _, a := range out.Aggregates {
		fmt.Fprintf(stdout, "== %s on %s under %s — %d/%d seeds ==\n\n",
			a.Target, a.Cluster, a.Profile, a.OK, a.Seeds)
		if a.OK == 0 {
			continue
		}
		if len(a.Series) > 0 {
			series := make([]textplot.Series, len(a.Series))
			for i, as := range a.Series {
				pts := make([]textplot.Point, len(as.X))
				for j := range as.X {
					pts[j] = textplot.Point{X: as.X[j], Y: as.Mean[j]}
				}
				series[i] = textplot.Series{Name: as.Name + " (mean)", Points: pts}
			}
			fmt.Fprintln(stdout, textplot.Chart("", "message size", "seconds", series, 72, 20))
		}
		if len(a.Metrics) > 0 {
			names := make([]string, 0, len(a.Metrics))
			for name := range a.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			rows := [][]string{{"metric", "mean", "±95% CI", "stddev", "n"}}
			for _, name := range names {
				s := a.Metrics[name]
				rows = append(rows, []string{name,
					fmt.Sprintf("%.6g", s.Mean),
					fmt.Sprintf("%.3g", s.CIHalf),
					fmt.Sprintf("%.3g", s.StdDev),
					fmt.Sprint(s.N)})
			}
			fmt.Fprintln(stdout, textplot.Table(rows))
		}
	}
	fmt.Fprintf(stdout, "(%d tasks, %d failed, %v wall-clock)\n",
		len(out.Results), out.Failed(), time.Since(start).Round(time.Millisecond))
	return 0
}
