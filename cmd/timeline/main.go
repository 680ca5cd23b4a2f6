// Command timeline visualizes one collective operation on the
// simulated cluster as per-rank swimlanes, making the paper's core
// structural claims visible: the root of a linear scatter serializes
// its send processing while the wires run in parallel; a gather above
// M2 serializes on the root's ingress; a binomial tree pipelines down
// the relay chain.
//
// Usage:
//
//	timeline -op scatter -alg linear -m 32768
//	timeline -op gather -alg binomial -m 131072 -mpi lam -v
//	timeline -op scatter -alg binomial -flame          # self-time table
//	timeline -op scatter -alg binomial -chrome t.json  # chrome://tracing
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/timeline"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	op, alg, mpi, chrome string
	m, n, root, width    int
	seed                 int64
	verbose, flame       bool
}

// run executes the command and returns its exit code: 0 on success, 2
// on a usage or simulation error.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.op, "op", "scatter", "collective: scatter, gather or bcast")
	fs.StringVar(&o.alg, "alg", "linear", "algorithm: linear, binomial, binary or chain")
	fs.IntVar(&o.m, "m", 32<<10, "block size in bytes")
	fs.IntVar(&o.n, "n", 8, "number of nodes (prefix of the Table I cluster)")
	fs.IntVar(&o.root, "root", 0, "root rank")
	fs.StringVar(&o.mpi, "mpi", "ideal", "TCP profile: lam, mpich or ideal")
	fs.Int64Var(&o.seed, "seed", 1, "TCP randomness seed")
	fs.IntVar(&o.width, "w", 100, "timeline width in characters")
	fs.BoolVar(&o.verbose, "v", false, "also print the message lifecycle log, one line per send-start, inject, deliver and recv-done, rendered from the message spans (steps of one instant sorted by text)")
	fs.BoolVar(&o.flame, "flame", false, "also print a flame summary (per-span-name count, total and self time)")
	fs.StringVar(&o.chrome, "chrome", "", "write the span trace in Chrome trace_event format to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.run(stdout); err != nil {
		fmt.Fprintf(stderr, "timeline: %v\n", err)
		return 2
	}
	return 0
}

func (o options) run(stdout io.Writer) error {
	full := cluster.Table1()
	if o.n < 2 || o.n > full.N() {
		return fmt.Errorf("-n must be in [2, %d]", full.N())
	}
	if o.m < 0 {
		return errors.New("-m must be non-negative")
	}
	cl := full.Prefix(o.n)
	prof, err := cluster.ParseProfile(o.mpi)
	if err != nil {
		return fmt.Errorf("unknown -mpi %q", o.mpi)
	}
	alg, err := collective.ParseAlg(o.alg)
	if err != nil {
		return fmt.Errorf("unknown -alg %q", o.alg)
	}
	var op func(r *mpi.Rank)
	switch o.op {
	case "scatter":
		op = func(r *mpi.Rank) {
			blocks := make([][]byte, r.Size())
			for i := range blocks {
				blocks[i] = make([]byte, o.m)
			}
			r.Scatter(alg, o.root, blocks)
		}
	case "gather":
		op = func(r *mpi.Rank) { r.Gather(alg, o.root, make([]byte, o.m)) }
	case "bcast":
		op = func(r *mpi.Rank) {
			var data []byte
			if r.Rank() == o.root {
				data = make([]byte, o.m)
			}
			r.Bcast(o.root, data)
		}
	default:
		return fmt.Errorf("unknown -op %q", o.op)
	}

	tr := obs.NewTrace()
	_, err = mpi.Run(mpi.Config{Cluster: cl, Profile: prof, Seed: o.seed, Obs: tr}, func(r *mpi.Rank) {
		r.HardSync()
		op(r)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s %s of %d-byte blocks, %d nodes, root %d, %s profile:\n\n",
		o.alg, o.op, o.m, o.n, o.root, prof.Name)
	fmt.Fprint(stdout, timeline.Render(tr.Spans(), o.n, o.width))

	if o.verbose {
		fmt.Fprintln(stdout, "\nevent log:")
		for _, l := range timeline.Log(tr.Spans()) {
			fmt.Fprintln(stdout, "  "+l)
		}
	}

	if o.flame {
		fmt.Fprintln(stdout, "\nflame summary (total = inclusive, self = minus children):")
		fmt.Fprint(stdout, obs.FlameSummary(tr))
	}
	if o.chrome != "" {
		f, err := os.Create(o.chrome)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, tr, func(track int) string {
			if track == obs.GlobalTrack {
				return "global"
			}
			if track >= 0 && track < len(cl.Nodes) {
				return fmt.Sprintf("%d %s", track, cl.Nodes[track].Name)
			}
			return fmt.Sprintf("track %d", track)
		}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nspan trace written to %s (%d spans; open at chrome://tracing or ui.perfetto.dev)\n",
			o.chrome, len(tr.Spans()))
	}
	return nil
}
