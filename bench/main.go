// Command bench is the repository's benchmark: four workloads that
// drive the estimate, autotune, models and serve packages through their
// public functions, reporting end-to-end metrics from an untraced run
// and per-layer metrics from a traced one.
//
//	go run . -workload estimate-table1 -seed 1     (in bench/; bash bench/run.sh builds and runs from the root)
//	go run . -workload serve-mixed -trace          (per-layer breakdown)
//	go run . -compare base.jsonl new.jsonl         (compare two sets of runs)
//
// See README.md for the workloads, the metrics and the attribution rule.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// setups is how many times an untraced run sets up; setup_s is the
// median.
const setups = 3

// workloads are the benchmark's workloads, in run order.
var workloads = []workload{estimateTable1, fabricFattree, tuneTable1, serveMixed}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    string
		cfg     runConfig
		compare bool
	)
	fs.StringVar(&name, "workload", "", "workload to run (default: all)")
	fs.StringVar(&name, "w", "", "shorthand for -workload")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	// BENCHMARK.json's run protocol passes --seconds; each workload runs
	// a fixed number of operations sized to its run_seconds instead, so
	// that a faster commit does not run more or other inputs.
	fs.Float64("seconds", 0, "ignored: every workload runs a fixed number of operations")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.outDir, "out", "out", "directory for runs.jsonl, Chrome traces and CPU profiles (empty: none)")
	fs.BoolVar(&compare, "compare", false, "compare two runs files: -compare a.jsonl b.jsonl")
	cfg.setups = setups
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two runs files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	selected, err := selectWorkloads(name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range selected {
		rec, err := run(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		rec.print(stdout)
		if cfg.outDir != "" {
			if err := appendRecord(filepath.Join(cfg.outDir, "runs.jsonl"), rec); err != nil {
				fmt.Fprintln(stderr, "bench: writing record:", err)
				return 1
			}
		}
		line, err := rec.resultJSON()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if rec.Failed > 0 {
			code = 1
		}
	}
	return code
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, errors.New("unknown workload " + name)
}

// normalizeArgs joins "-trace 0" and "-trace 1" into one argument: the
// flag package reads a boolean flag's value only after '='.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch v := args[i+1]; v {
			case "0", "1", "true", "false":
				a += "=" + v
				i++
			}
		}
		out = append(out, a)
	}
	return out
}
