// Package autotune is the model-guided collective auto-tuner. For
// each (collective, message-size range) cell on one cluster it
// enumerates a candidate space of algorithm × tree degree × segment
// size, prunes it with cheap closed-form predictions on the unified
// predictor interface (models.CollectivePredictor), validates the
// surviving top-k candidates in the event simulator through the
// campaign engine, and emits a versioned tuned.Table decision table
// that a tuned.Tuner replays at call time.
//
// The pipeline is the paper's optimization loop made systematic: the
// LMO model's analytical predictions (eqs 3–5 plus the empirical
// gather branches) are cheap enough to rank dozens of candidate
// shapes per cell, and the simulator — the stand-in for real runs —
// confirms only the few that survive. The gather-splitting ~10× win
// of Fig 7 falls out as the tuner picking linear+segmented inside the
// TCP irregularity region.
package autotune

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
	"repro/internal/optimize"
	"repro/internal/tuned"
)

// DefaultCandidates enumerates the stock search space: every
// algorithm family unsegmented and with 4K/16K segments, plus k-ary
// trees of degree 4 and 8. When the model is an LMO with detected
// gather irregularity, the empirical split segment (M1) joins the
// segment set so the Fig 7 optimization is always reachable.
func DefaultCandidates(model models.CollectivePredictor) []optimize.Shape {
	segments := []int{0, 4 << 10, 16 << 10}
	if lmo, ok := model.(*models.LMOX); ok {
		if s := optimize.GatherSegment(lmo.Gather); s > 0 && !slices.Contains(segments, s) {
			segments = append(segments, s)
		}
	}
	var cands []optimize.Shape
	for _, alg := range mpi.Algorithms() {
		for _, seg := range segments {
			cands = append(cands, optimize.Shape{Alg: alg, Segment: seg})
		}
	}
	for _, k := range []int{4, 8} {
		for _, seg := range segments {
			cands = append(cands, optimize.Shape{Alg: mpi.Binary, Degree: k, Segment: seg})
		}
	}
	return cands
}

// Scored is a candidate shape with its closed-form prediction and
// (for prune survivors) its simulated makespan, both in seconds.
type Scored struct {
	Candidate  optimize.Shape `json:"candidate"`
	PredictedS float64        `json:"predicted_s"`
	SimulatedS float64        `json:"simulated_s,omitempty"`
}

// Cell is one tuning cell: a collective operation at one probed
// message size. Ranked holds the prune survivors in closed-form
// order; Winner the simulator-validated best.
type Cell struct {
	Op tuned.Op `json:"op"`
	M  int      `json:"m"`

	// Infeasible counts candidates the model could not answer;
	// Pruned the answerable candidates dropped by the closed-form
	// ranking before simulation, those that run the same shape as a
	// better-ranked one included.
	Infeasible int      `json:"infeasible"`
	Pruned     int      `json:"pruned"`
	Ranked     []Scored `json:"ranked"`
	Winner     Scored   `json:"winner"`

	// Agree reports whether the closed-form top-1 candidate held up
	// in the simulator: it either won outright or its simulated
	// makespan is within 10% of the winner's.
	Agree bool `json:"agree"`
}

// Options shape a tuning run.
type Options struct {
	// Ops are the collectives to tune (default scatter and gather).
	Ops []tuned.Op
	// MsgSizes are the probed sizes; each becomes a decision-table
	// range [size_i, size_i+1). Default: the experiment sweep
	// 1 KB – 200 KB (experiment.DefaultSizes).
	MsgSizes []int
	// TopK survivors of the closed-form prune, each a different shape,
	// are validated in the simulator (default 3).
	TopK int
	// Candidates overrides the search space (default
	// DefaultCandidates(model)).
	Candidates []optimize.Shape
	// Parallel caps the campaign worker pool (<=0 = GOMAXPROCS).
	Parallel int
	// Stats, when non-nil, receives live campaign progress counters.
	Stats *campaign.Stats
	// ClusterName labels the table's provenance metadata.
	ClusterName string
}

func (o Options) withDefaults(model models.CollectivePredictor) Options {
	if len(o.Ops) == 0 {
		o.Ops = []tuned.Op{tuned.OpScatter, tuned.OpGather}
	}
	if len(o.MsgSizes) == 0 {
		o.MsgSizes = experiment.DefaultSizes()
	}
	o.MsgSizes = slices.Clone(o.MsgSizes)
	slices.Sort(o.MsgSizes)
	if o.TopK <= 0 {
		o.TopK = 3
	}
	if len(o.Candidates) == 0 {
		o.Candidates = DefaultCandidates(model)
	}
	if o.ClusterName == "" {
		o.ClusterName = "cluster"
	}
	return o
}

// Result is a completed tuning run: the decision table plus the full
// per-cell evidence behind it.
type Result struct {
	Table *tuned.Table `json:"table"`
	Cells []Cell       `json:"cells"`

	// Agreement is the fraction of cells whose closed-form top-1
	// candidate held up in the simulator (the model-fidelity metric;
	// the acceptance bar is 0.8).
	Agreement float64 `json:"agreement"`

	// Candidates is the per-cell search-space size, Simulated the
	// number of simulator validations the prune left standing.
	Candidates int `json:"candidates"`
	Simulated  int `json:"simulated"`

	// Outcome is the validation campaign's raw outcome (wall time,
	// per-candidate task results); excluded from the JSON form, which
	// carries the digested Cells instead.
	Outcome *campaign.Outcome `json:"-"`
}

// collFor maps a tuned table operation onto the predictor vocabulary.
func collFor(op tuned.Op) (models.Collective, error) {
	switch op {
	case tuned.OpScatter:
		return models.CollScatter, nil
	case tuned.OpGather:
		return models.CollGather, nil
	}
	return 0, fmt.Errorf("autotune: cannot tune op %q", op)
}

// Tune runs the full pipeline — enumerate, prune, simulate, decide —
// for one cluster and model. The cfg supplies the machine, TCP
// profile, root, seed and observation rule (zero-value fields fall
// back to the experiment defaults: Table 1 cluster, LAM profile).
func Tune(ctx context.Context, cfg experiment.Config, model models.CollectivePredictor, opt Options) (*Result, error) {
	if model == nil {
		return nil, fmt.Errorf("autotune: nil model")
	}
	if cfg.Cluster == nil {
		cfg.Cluster = cluster.Table1()
	}
	if cfg.Profile == nil {
		cfg.Profile = cluster.LAM()
	}
	opt = opt.withDefaults(model)
	n := cfg.Cluster.N()

	// Phase 1: closed-form prune. optimize.Rank answers every candidate
	// the model can and keeps the top-k distinct shapes by predicted
	// makespan for simulation: a candidate that runs the same shape as a
	// better-ranked one would only simulate it again.
	var cells []Cell
	for _, op := range opt.Ops {
		coll, err := collFor(op)
		if err != nil {
			return nil, err
		}
		for _, m := range opt.MsgSizes {
			kept, infeasible, pruned := optimize.Rank(model, coll, cfg.Root, n, m, opt.Candidates, opt.TopK)
			if len(kept) == 0 {
				return nil, fmt.Errorf("autotune: model %q answered no candidate for %s at %d bytes", model.Name(), op, m)
			}
			cell := Cell{Op: op, M: m, Infeasible: infeasible, Pruned: pruned, Ranked: make([]Scored, len(kept))}
			for i, r := range kept {
				cell.Ranked[i] = Scored{Candidate: r.Shape, PredictedS: r.PredictedS}
			}
			cells = append(cells, cell)
		}
	}

	// Phase 2: simulator validation through the campaign engine — one
	// Custom target per surviving (cell, candidate), executed by a
	// RunTask hook that times the exact candidate shape with Simulate.
	type ref struct{ cell, cand int }
	var targets []campaign.Target
	var refs []ref
	for ci := range cells {
		for ki := range cells[ci].Ranked {
			targets = append(targets, campaign.Target{
				Kind: campaign.Custom,
				ID:   fmt.Sprintf("%s/%d/%s", cells[ci].Op, cells[ci].M, cells[ci].Ranked[ki].Candidate),
			})
			refs = append(refs, ref{ci, ki})
		}
	}
	grid := campaign.Grid{
		Seeds:    []int64{cfg.Seed},
		Profiles: []*cluster.TCPProfile{cfg.Profile},
		Clusters: []campaign.ClusterSpec{{Name: opt.ClusterName, Cluster: cfg.Cluster}},
		Targets:  targets,
	}
	out, err := campaign.Run(ctx, grid, campaign.Options{
		Parallel: opt.Parallel,
		Stats:    opt.Stats,
		RunTask: func(_ campaign.Grid, t campaign.Task) campaign.Result {
			r := t.NewResult()
			rf := refs[t.Coord.Target]
			cell := cells[rf.cell]
			s, err := Simulate(cfg, cell.Op, cell.Ranked[rf.cand].Candidate, cell.M)
			if err != nil {
				r.Err = err.Error()
				return r
			}
			r.Metrics = map[string]float64{"makespan_s": s}
			return r
		},
	})
	if err != nil {
		return nil, err
	}
	for _, r := range out.Results {
		rf := refs[r.Coord.Target]
		if r.Err != "" {
			cells[rf.cell].Ranked[rf.cand].SimulatedS = math.Inf(1)
			continue
		}
		cells[rf.cell].Ranked[rf.cand].SimulatedS = r.Metrics["makespan_s"]
	}

	// Phase 3: decide. The simulated minimum wins each cell; the cell
	// agrees when the closed-form favourite was (nearly) as good.
	agreeCount := 0
	for ci := range cells {
		cell := &cells[ci]
		best := 0
		for k := range cell.Ranked {
			if cell.Ranked[k].SimulatedS < cell.Ranked[best].SimulatedS {
				best = k
			}
		}
		cell.Winner = cell.Ranked[best]
		cell.Agree = best == 0 ||
			cell.Ranked[0].SimulatedS <= cell.Winner.SimulatedS*1.10
		if cell.Agree {
			agreeCount++
		}
	}

	res := &Result{
		Cells:      cells,
		Agreement:  float64(agreeCount) / float64(len(cells)),
		Candidates: len(opt.Candidates),
		Outcome:    out,
	}
	for _, c := range cells {
		res.Simulated += len(c.Ranked)
	}
	res.Table = buildTable(cfg, opt, n, cells)
	if err := res.Table.Validate(); err != nil {
		return nil, fmt.Errorf("autotune: built an invalid table: %w", err)
	}
	return res, nil
}

// buildTable folds the per-cell winners into a decision table: cell i
// of an operation governs message sizes [size_i, size_i+1), with the
// first range opened down to 0 and the last unbounded.
func buildTable(cfg experiment.Config, opt Options, n int, cells []Cell) *tuned.Table {
	tbl := &tuned.Table{
		Version: tuned.TableVersion,
		Root:    cfg.Root,
		Meta: &models.Meta{
			Cluster: opt.ClusterName,
			Nodes:   n,
			Profile: cfg.Profile.Name,
			Seed:    cfg.Seed,
			Est:     "autotune",
		},
	}
	for _, op := range opt.Ops {
		var opCells []Cell
		for _, c := range cells {
			if c.Op == op {
				opCells = append(opCells, c)
			}
		}
		for i, c := range opCells {
			min, max := c.M, 0
			if i == 0 {
				min = 0
			}
			if i+1 < len(opCells) {
				max = opCells[i+1].M
			}
			w := c.Winner
			tbl.Rules = append(tbl.Rules, tuned.Rule{Op: op, MinBytes: min, MaxBytes: max,
				Alg: w.Candidate.Alg.String(), Degree: w.Candidate.Degree, Segment: w.Candidate.Segment,
				PredictedS: w.PredictedS, SimulatedS: w.SimulatedS})
		}
	}
	return tbl
}

// Simulate times one scatter or gather under a candidate shape, with
// m-byte blocks from cfg.Root, in one job on cfg's platform, and
// returns its makespan in seconds: the ground truth the closed-form
// predictions are judged against. It times through cfg's
// experiment.Probe, the one observation procedure of the figures:
// synchronised repetitions under mpib.Measure, each sample the
// maximum over the ranks, and it returns their mean. The closed forms
// predict one isolated collective, so no repetition may overlap the
// next; and the TCP escalations of the irregular region are
// probabilistic, so a single draw misrepresents the expected cost they
// predict.
func Simulate(cfg experiment.Config, op tuned.Op, c optimize.Shape, m int) (float64, error) {
	coll, err := collFor(op)
	if err != nil {
		return 0, err
	}
	p := cfg.Probe()
	var mean float64
	_, err = mpi.Run(cfg.MPIConfig(), func(r *mpi.Rank) {
		mean = p.Measure(r, mpib.MaxTiming, coll, c, m).Mean
	})
	return mean, err
}
