// Command predict compares model predictions of one collective
// operation against the observation on the simulated cluster: it
// estimates the model zoo (or loads it with -models), predicts the
// requested operation with every family, runs it, and prints the
// results side by side — the per-operation view of the paper's Figs 4
// and 5. With -batch it streams JSONL queries to one JSON prediction per
// line instead, the server-free counterpart of lmoserve's batched
// /predict.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/optimize"
	"repro/internal/serve"
	"repro/internal/textplot"
	"repro/internal/topo"
	"repro/internal/tuned"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	op, alg, mpi, models, topo, batch, tuned string
	m, root, reps                            int
	seed                                     int64
}

// run executes the command and returns its exit code: 0 on success, 2
// on a usage, input or estimation error.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.op, "op", "scatter", "collective: scatter, gather, bcast or reduce (the observation runs scatter and gather)")
	fs.StringVar(&o.alg, "alg", "linear", "algorithm: linear, binomial, binary or chain")
	fs.IntVar(&o.m, "m", 64<<10, "block size in bytes")
	fs.IntVar(&o.root, "root", 0, "root rank")
	fs.StringVar(&o.mpi, "mpi", "lam", "MPI implementation profile: lam, mpich or ideal")
	fs.Int64Var(&o.seed, "seed", 1, "TCP randomness seed")
	fs.IntVar(&o.reps, "reps", 10, "observation repetitions")
	fs.StringVar(&o.models, "models", "", "load estimated models from this JSON file (from cmd/estimate -json) instead of re-estimating")
	fs.StringVar(&o.topo, "topo", "", "homogeneous multi-switch cluster from a topology spec (single:N, twotier:RxP, fattree:K, multicluster:SxP) instead of Table I")
	fs.StringVar(&o.batch, "batch", "", `batch mode: read JSONL queries ({"op","alg","m","root","degree","segment"}, blanks inherit the flags) from this file ("-" = stdin) and emit one JSON prediction per line; skips the observation run`)
	fs.StringVar(&o.tuned, "tuned", "", "answer from an auto-tuned decision table (JSON from lmobench -exp tune or lmoserve /tune): print its chosen shape for this op and size and observe it")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.run(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "predict: %v\n", err)
		return 2
	}
	return 0
}

func (o options) run(stdout, stderr io.Writer) error {
	var prof *cluster.TCPProfile
	switch o.mpi {
	case "lam":
		prof = cluster.LAM()
	case "mpich":
		prof = cluster.MPICH()
	case "ideal":
		prof = cluster.Ideal()
	default:
		return fmt.Errorf("unknown -mpi %q", o.mpi)
	}

	// In batch mode stdout carries pure JSONL; status goes to stderr.
	info := stdout
	if o.batch != "" {
		info = stderr
	}

	cfg := experiment.Default()
	cfg.Profile = prof
	cfg.Seed = o.seed
	cfg.Root = o.root
	cfg.ObsReps = o.reps
	if o.topo != "" {
		t, err := topo.ParseSpec(o.topo)
		if err != nil {
			return err
		}
		cfg.Cluster = cluster.FromTopology(t, cluster.NodeSpec{}, cluster.LinkSpec{})
	}
	n := cfg.Cluster.N()

	var ms *experiment.ModelSet
	if o.models != "" {
		var err error
		if ms, err = o.loadModels(&cfg, prof, info); err != nil {
			return err
		}
		n = cfg.Cluster.N()
	}

	// The flags are one query, and the defaults of every -batch row.
	flagRow := serve.QueryRow{Op: o.op, Alg: o.alg, M: o.m, Root: o.root}
	q, err := flagRow.Query(n)
	if err != nil {
		return err
	}
	if o.batch == "" && q.Coll != models.CollScatter && q.Coll != models.CollGather {
		return fmt.Errorf("the observation runs scatter and gather only; predict %v with -batch", q.Coll)
	}

	if ms == nil {
		clusterName := "Table I"
		if o.topo != "" {
			clusterName = o.topo
		}
		fmt.Fprintf(info, "Estimating models on the %d-node %s cluster (%s)...\n", n, clusterName, prof.Name)
		if ms, err = experiment.EstimateAll(cfg); err != nil {
			return err
		}
	}
	fams := families(ms)

	if o.batch != "" {
		return runBatch(o.batch, fams, ms.LMO, flagRow, n, stdout)
	}

	op := experiment.Scatter
	if q.Coll == models.CollGather {
		op = experiment.Gather
	}
	cfg.Sizes = []int{q.M}
	obs, err := experiment.Observe(cfg, op, q.Alg)
	if err != nil {
		return err
	}
	rows := [][]string{{"source", "time (s)", "vs observed"}}
	rows = append(rows, []string{"observed (mean of " + fmt.Sprint(o.reps) + ")", fmt.Sprintf("%.6f", obs.Mean[0]), "—"})
	for _, p := range fams {
		v, err := p.Predict(q)
		if err != nil {
			continue
		}
		rows = append(rows, []string{p.Name(), fmt.Sprintf("%.6f", v),
			fmt.Sprintf("%+.1f%%", 100*(v-obs.Mean[0])/obs.Mean[0])})
	}
	fmt.Fprintf(stdout, "\n%v %v of %d-byte blocks on %d nodes (root %d):\n\n", q.Alg, q.Coll, q.M, n, q.Root)
	fmt.Fprintln(stdout, textplot.Table(rows))

	if o.tuned != "" {
		if err := reportTuned(stdout, cfg, o.tuned, q.Coll.String(), q.M, obs.Mean[0]); err != nil {
			return err
		}
	}
	if lo, hi, ok := serve.GatherBand(ms.LMO, q); ok {
		fmt.Fprintf(stdout, "LMO escalation band at this size: [%.6f, %.6f] s (observed worst rep %.6f)\n",
			lo, hi, obs.Max[0])
	}
	return nil
}

// loadModels reads the -models file. The file's provenance pins the
// platform it was estimated on: the cluster shrinks to match, and a
// profile mismatch is noted on info.
func (o options) loadModels(cfg *experiment.Config, prof *cluster.TCPProfile, info io.Writer) (*experiment.ModelSet, error) {
	data, err := os.ReadFile(o.models)
	if err != nil {
		return nil, err
	}
	mf, err := models.UnmarshalModelFile(data)
	if err != nil {
		return nil, err
	}
	n := cfg.Cluster.N()
	if meta := mf.Meta; meta != nil {
		if meta.Nodes != n {
			if meta.Nodes < 3 || meta.Nodes > n {
				return nil, fmt.Errorf("model file %s was estimated on %d nodes; this cluster has %d", o.models, meta.Nodes, n)
			}
			cfg.Cluster = cfg.Cluster.Prefix(meta.Nodes)
			n = meta.Nodes
		}
		if meta.Profile != prof.Name {
			fmt.Fprintf(info, "note: models were estimated under %s, observing under %s\n", meta.Profile, prof.Name)
		}
	}
	plogp, err := mf.GetPLogP()
	if err != nil {
		return nil, err
	}
	ms := &experiment.ModelSet{
		Hom: mf.Hockney, Het: mf.GetHetHockney(),
		LogP: mf.LogP, LogGP: mf.LogGP, PLogP: plogp, LMO: mf.GetLMO(),
	}
	if ms.Het == nil || ms.LMO == nil || ms.LogGP == nil || ms.PLogP == nil {
		return nil, fmt.Errorf("model file %s is missing required models; regenerate with cmd/estimate -json", o.models)
	}
	fmt.Fprintf(info, "Loaded models from %s for the %d-node Table I cluster (%s)\n", o.models, n, prof.Name)
	return ms, nil
}

// families lists the model set's predictors in lmoserve's render order,
// skipping the families a -models file left out.
func families(ms *experiment.ModelSet) []models.CollectivePredictor {
	var out []models.CollectivePredictor
	for _, f := range []struct {
		p       models.CollectivePredictor
		present bool
	}{
		{ms.Hom, ms.Hom != nil},
		{ms.Het, ms.Het != nil},
		{ms.LogP, ms.LogP != nil},
		{ms.LogGP, ms.LogGP != nil},
		{ms.PLogP, ms.PLogP != nil},
		{ms.LMO, ms.LMO != nil},
	} {
		if f.present {
			out = append(out, f.p)
		}
	}
	return out
}

// batchQuery is one JSONL row of -batch input. Absent fields inherit
// the command-line flags (the batched /predict default-merge idiom).
type batchQuery struct {
	Op      string `json:"op,omitempty"`
	Alg     string `json:"alg,omitempty"`
	M       int    `json:"m,omitempty"`
	Root    *int   `json:"root,omitempty"`
	Degree  int    `json:"degree,omitempty"`
	Segment int    `json:"segment,omitempty"`
}

// batchResult is one output line: the resolved query plus every model
// family's prediction for it, keyed like lmoserve's /predict.
type batchResult struct {
	Op          string             `json:"op"`
	Alg         string             `json:"alg"`
	M           int                `json:"m"`
	Nodes       int                `json:"nodes"`
	Root        int                `json:"root"`
	Degree      int                `json:"degree,omitempty"`
	Segment     int                `json:"segment,omitempty"`
	Predictions map[string]float64 `json:"predictions"`
	BandLow     *float64           `json:"band_low,omitempty"`
	BandHigh    *float64           `json:"band_high,omitempty"`
}

// runBatch streams JSONL queries through the model families. Each row
// is parsed with /predict's query conversion, piece-count limit
// included; a family whose Predict rejects a shape is left out of the
// row, as lmoserve does.
func runBatch(path string, fams []models.CollectivePredictor, lmo *models.LMOX, def serve.QueryRow, n int, stdout io.Writer) error {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var bq batchQuery
		if err := json.Unmarshal(raw, &bq); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		row := def
		if bq.Op != "" {
			row.Op = bq.Op
		}
		if bq.Alg != "" {
			row.Alg = bq.Alg
		}
		if bq.M != 0 {
			row.M = bq.M
		}
		if bq.Root != nil {
			row.Root = *bq.Root
		}
		row.Degree, row.Segment = bq.Degree, bq.Segment
		q, err := row.Query(n)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		res := batchResult{
			Op: q.Coll.String(), Alg: q.Alg.String(), M: q.M, Nodes: n, Root: q.Root,
			Degree: q.Degree, Segment: q.Segment, Predictions: map[string]float64{},
		}
		for _, p := range fams {
			if v, err := p.Predict(q); err == nil {
				res.Predictions[strings.ToLower(p.Name())] = v
			}
		}
		if lo, hi, ok := serve.GatherBand(lmo, q); ok {
			res.BandLow, res.BandHigh = &lo, &hi
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
	return sc.Err()
}

// reportTuned answers the query from an auto-tuned decision table:
// look up the rule covering (op, m), print the chosen shape with its
// tuning-time predictions, then observe that shape on this cluster and
// compare it with the naive observation obsNaive.
func reportTuned(w io.Writer, cfg experiment.Config, path, opName string, m int, obsNaive float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tbl, err := tuned.UnmarshalTable(data)
	if err != nil {
		return err
	}
	n := cfg.Cluster.N()
	if meta := tbl.Meta; meta != nil && meta.Nodes != n {
		return fmt.Errorf("decision table %s was tuned for %d nodes; this cluster has %d", path, meta.Nodes, n)
	}
	rule, ok := tbl.Lookup(tuned.Op(opName), m)
	if !ok {
		fmt.Fprintf(w, "tuned: %s has no %s rule covering %d bytes\n", path, opName, m)
		return nil
	}
	alg, err := rule.AlgValue()
	if err != nil {
		return err
	}
	mcfg := mpi.Config{Cluster: cfg.Cluster, Profile: cfg.Profile, Seed: cfg.Seed, Faults: cfg.Faults}
	res, err := mpi.Run(mcfg, func(r *mpi.Rank) {
		if tuned.Op(opName) == tuned.OpGather {
			optimize.ExecGather(r, alg, rule.Degree, rule.Segment, tbl.Root, make([]byte, m))
			return
		}
		var blocks [][]byte
		if r.Rank() == tbl.Root {
			blocks = make([][]byte, n)
			for i := range blocks {
				blocks[i] = make([]byte, m)
			}
		}
		optimize.ExecScatter(r, alg, rule.Degree, rule.Segment, tbl.Root, m, blocks)
	})
	if err != nil {
		return err
	}
	got := res.Duration.Seconds()
	fmt.Fprintf(w, "\ntuned decision for %s at %d bytes: %s\n", opName, m, rule.String())
	fmt.Fprintf(w, "  tuning-time: predicted %.6f s, simulated %.6f s\n", rule.PredictedS, rule.SimulatedS)
	fmt.Fprintf(w, "  observed here: %.6f s (%+.1f%% vs the flagged algorithm's %.6f s)\n",
		got, 100*(got-obsNaive)/obsNaive, obsNaive)
	return nil
}
