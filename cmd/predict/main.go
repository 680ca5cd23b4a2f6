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

	"repro/internal/autotune"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
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
	fs.StringVar(&o.op, "op", "scatter", "collective: scatter, gather, bcast or reduce (bcast and reduce with -alg binomial only, and without -tuned)")
	fs.StringVar(&o.alg, "alg", "linear", "algorithm: linear, binomial, binary or chain")
	fs.IntVar(&o.m, "m", 64<<10, "block size in bytes")
	fs.IntVar(&o.root, "root", 0, "root rank")
	fs.StringVar(&o.mpi, "mpi", "lam", "MPI implementation profile: lam, mpich or ideal")
	fs.Int64Var(&o.seed, "seed", 1, "TCP randomness seed")
	fs.IntVar(&o.reps, "reps", 10, "observation repetitions (at least 1)")
	fs.StringVar(&o.models, "models", "", "load estimated models from this JSON file (from cmd/estimate -json) instead of re-estimating")
	fs.StringVar(&o.topo, "topo", "", "homogeneous multi-switch cluster from a topology spec (single:N, twotier:RxP, fattree:K, multicluster:SxP) instead of Table I")
	fs.StringVar(&o.batch, "batch", "", `batch mode: read JSONL queries ({"op","alg","m","root","degree","segment"}, blanks inherit the flags) from this file ("-" = stdin) and emit one JSON prediction per line; skips the observation run`)
	fs.StringVar(&o.tuned, "tuned", "", "answer from an auto-tuned decision table (JSON from lmobench -exp tune or lmoserve /tune) tuned for this -root and node count: print its chosen shape for this op and size and observe it")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.reps < 1 {
		fmt.Fprintf(stderr, "predict: -reps %d: an observation needs at least one repetition\n", o.reps)
		return 2
	}
	if err := o.run(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "predict: %v\n", err)
		return 2
	}
	return 0
}

func (o options) run(stdout, stderr io.Writer) error {
	prof, err := cluster.ParseProfile(o.mpi)
	if err != nil {
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

	var set *models.Set
	var loaded string // a -models load's status, printed once the query is valid
	if o.models != "" {
		var err error
		if set, loaded, err = o.loadModels(&cfg, prof); err != nil {
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
	if o.batch == "" && (q.Coll == models.CollBcast || q.Coll == models.CollReduce) {
		// The observation runs mpi's binomial tree for these whatever
		// the algorithm, so another one would compare two trees.
		if q.Alg != mpi.Binomial {
			return fmt.Errorf("-alg %v: %v is observed over the binomial tree only; use -alg binomial", q.Alg, q.Coll)
		}
		if o.tuned != "" {
			return fmt.Errorf("-tuned: decision tables hold scatter and gather only, not %v", q.Coll)
		}
	}
	var tbl *tuned.Table
	if o.batch == "" && o.tuned != "" {
		if tbl, err = loadTable(o.tuned, n, q.Root); err != nil {
			return err
		}
	}

	fmt.Fprint(info, loaded)
	if set == nil {
		clusterName := "Table I"
		if o.topo != "" {
			clusterName = o.topo
		}
		fmt.Fprintf(info, "Estimating models on the %d-node %s cluster (%s)...\n", n, clusterName, prof.Name)
		ms, err := experiment.EstimateAll(cfg)
		if err != nil {
			return err
		}
		set = &ms.Set
	}

	if o.batch != "" {
		return runBatch(o.batch, *set, flagRow, n, stdout)
	}

	cfg.Sizes = []int{q.M}
	obs, err := experiment.Observe(cfg, q.Coll, q.Alg)
	if err != nil {
		return err
	}
	rows := [][]string{{"source", "time (s)", "vs observed"}}
	rows = append(rows, []string{"observed (mean of " + fmt.Sprint(o.reps) + ")", fmt.Sprintf("%.6f", obs.Mean[0]), "—"})
	for _, p := range set.Predictors() {
		if p == nil {
			continue
		}
		v, err := p.Predict(q)
		if err != nil {
			continue
		}
		rows = append(rows, []string{p.Name(), fmt.Sprintf("%.6f", v),
			fmt.Sprintf("%+.1f%%", 100*(v-obs.Mean[0])/obs.Mean[0])})
	}
	fmt.Fprintf(stdout, "\n%v %v of %d-byte blocks on %d nodes (root %d):\n\n", q.Alg, q.Coll, q.M, n, q.Root)
	fmt.Fprintln(stdout, textplot.Table(rows))

	if tbl != nil {
		if err := reportTuned(stdout, cfg, tbl, o.tuned, tuned.Op(q.Coll.String()), q.M, obs.Mean[0]); err != nil {
			return err
		}
	}
	if lo, hi, ok := serve.GatherBand(set.LMO, q); ok {
		fmt.Fprintf(stdout, "LMO escalation band at this size: [%.6f, %.6f] s (observed worst rep %.6f)\n",
			lo, hi, obs.Max[0])
	}
	return nil
}

// loadModels reads the -models file. The file's provenance pins the
// platform it was estimated on: the cluster shrinks to match. It
// returns the status lines to print once the query is known to be
// valid: a profile mismatch note and the load itself.
func (o options) loadModels(cfg *experiment.Config, prof *cluster.TCPProfile) (*models.Set, string, error) {
	data, err := os.ReadFile(o.models)
	if err != nil {
		return nil, "", err
	}
	mf, err := models.UnmarshalModelFile(data)
	if err != nil {
		return nil, "", err
	}
	var status strings.Builder
	n := cfg.Cluster.N()
	if meta := mf.Meta; meta != nil {
		if meta.Nodes != n {
			if meta.Nodes < 3 || meta.Nodes > n {
				return nil, "", fmt.Errorf("model file %s was estimated on %d nodes; this cluster has %d", o.models, meta.Nodes, n)
			}
			cfg.Cluster = cfg.Cluster.Prefix(meta.Nodes)
			n = meta.Nodes
		}
		if meta.Profile != prof.Name {
			fmt.Fprintf(&status, "note: models were estimated under %s, observing under %s\n", meta.Profile, prof.Name)
		}
	}
	set, err := mf.Set()
	if err != nil {
		return nil, "", err
	}
	if set.Het == nil || set.LMO == nil || set.LogGP == nil || set.PLogP == nil {
		return nil, "", fmt.Errorf("model file %s is missing required models; regenerate with cmd/estimate -json", o.models)
	}
	fmt.Fprintf(&status, "Loaded models from %s for the %d-node Table I cluster (%s)\n", o.models, n, prof.Name)
	return &set, status.String(), nil
}

// runBatch streams JSONL queries through the model families. Each line
// is a /predict row merged over the flags and parsed with /predict's
// query conversion, piece-count limit included, and prints as
// serve.AppendAnswer renders it: a family whose Predict rejects a shape
// is left out of the line, as lmoserve does. The flags and -models fix
// the platform, so a line naming one is refused.
func runBatch(path string, set models.Set, def serve.QueryRow, n int, stdout io.Writer) error {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	preds := set.Predictors()
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var b []byte
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var row serve.BatchQuery
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields() // a misspelled field must not fall back to the flags
		if err := dec.Decode(&row); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if dec.InputOffset() != int64(len(raw)) {
			return fmt.Errorf("line %d: data after the query object", line)
		}
		if row.Cluster != "" || row.Nodes != 0 || row.Profile != "" || row.Seed != 0 {
			return fmt.Errorf("line %d: cluster, nodes, profile and seed are fixed by the flags and -models, not by a query", line)
		}
		q, err := row.Merge(def).Query(n)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		b = append(b[:0], '{')
		b = serve.AppendAnswer(b, &preds, set.LMO, q)
		b = append(b, "}\n"...)
		if _, err := out.Write(b); err != nil {
			return err
		}
	}
	return sc.Err()
}

// loadTable reads the -tuned decision table and checks that it answers
// for this cluster's size and this root: a table decides for the one
// root it was tuned at.
func loadTable(path string, n, root int) (*tuned.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tbl, err := tuned.UnmarshalTable(data)
	if err != nil {
		return nil, err
	}
	if meta := tbl.Meta; meta != nil && meta.Nodes != n {
		return nil, fmt.Errorf("decision table %s was tuned for %d nodes; this cluster has %d", path, meta.Nodes, n)
	}
	if tbl.Root != root {
		return nil, fmt.Errorf("decision table %s was tuned for root %d; -root is %d", path, tbl.Root, root)
	}
	return tbl, nil
}

// reportTuned answers the query from the decision table tbl, read from
// path: look up the rule covering (op, m), print the chosen shape with
// its tuning-time figures, then time that shape on this cluster as the
// tuner does (autotune.Simulate, -reps repetitions) and compare it with
// the flagged algorithm's observation obsNaive.
func reportTuned(w io.Writer, cfg experiment.Config, tbl *tuned.Table, path string, op tuned.Op, m int, obsNaive float64) error {
	rule, ok := tbl.Lookup(op, m)
	if !ok {
		fmt.Fprintf(w, "tuned: %s has no %s rule covering %d bytes\n", path, op, m)
		return nil
	}
	shape, err := rule.Shape()
	if err != nil {
		return err
	}
	got, err := autotune.Simulate(cfg, op, shape, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntuned decision for %s at %d bytes: %s\n", op, m, shape)
	fmt.Fprintf(w, "  tuning-time: predicted %.6f s, simulated %.6f s\n", rule.PredictedS, rule.SimulatedS)
	fmt.Fprintf(w, "  observed here: %.6f s (%+.1f%% vs the flagged algorithm's %.6f s)\n",
		got, 100*(got-obsNaive)/obsNaive, obsNaive)
	return nil
}
