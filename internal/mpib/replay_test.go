package mpib

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// The ops of the replay oracle: each run of one makes the same calls.
const (
	opGather  = iota // a linear gather at the designated rank
	opPending        // the gather; a message left on the wire at the close, for the next run to take
	opBacklog        // the gather; a message left undelivered at the close, for the next run to take
	opCell           // the gather, then a SharedCell call on every rank
	opSync           // the gather, then a HardSync
)

// replayJob is what a job of two measurements leaves: every rank's
// measurements and collective sequence, the job's duration and traffic,
// and its escalation draws and SharedCell calls at its end.
type replayJob struct {
	meas         [][]Measurement
	colls        []int
	dur          time.Duration
	net          simnet.Counters
	draws, cells int
}

// replayRun is one measurement of a replay-oracle job as rank 0 saw it:
// how often its op ran and how many escalation draws the job made
// meanwhile.
type replayRun struct{ ran, draws int }

// runReplayJob runs two measurements of op kind with m-byte blocks
// through measure, without an observer. With lead, each measurement
// starts with a message on the wire, which the op's first run takes and
// every later run awaits in vain for a millisecond.
func runReplayJob(t *testing.T, cfg mpi.Config, designated int, timing Timing, opts Options, m, kind int, lead bool,
	measure func(*mpi.Rank, int, Timing, Options, func()) Measurement) (replayJob, []replayRun) {
	n := cfg.Cluster.N()
	job := replayJob{meas: make([][]Measurement, n), colls: make([]int, n)}
	var runs []replayRun
	peer := (designated + n - 1) % n
	res, err := mpi.Run(cfg, func(r *mpi.Rank) {
		block := make([]byte, m)
		for i := 0; i < 2; i++ {
			if lead && r.Rank() == designated {
				r.Send(peer, 2, nil)
			}
			ran, draws := 0, r.SyncState().Draws
			meas := measure(r, designated, timing, opts, func() {
				ran++
				me := r.Rank()
				if lead && me == peer {
					r.RecvTimeout(designated, 2, time.Millisecond)
				}
				switch { // each takes the last run's message if it has arrived
				case kind == opPending && me == peer:
					r.RecvTimeout(designated, 1, time.Nanosecond)
				case kind == opBacklog && me == designated:
					r.RecvTimeout(peer, 3, time.Nanosecond)
				case kind == opBacklog && me == peer:
					r.Send(designated, 3, nil)
				}
				r.Gather(mpi.Linear, designated, block)
				switch {
				case kind == opPending && me == designated:
					r.Send(peer, 1, block) // still on the wire when the repetition closes
				case kind == opCell:
					r.SharedCell()
				case kind == opSync:
					r.HardSync()
				}
			})
			job.meas[r.Rank()] = append(job.meas[r.Rank()], meas)
			if r.Rank() == 0 {
				runs = append(runs, replayRun{ran, r.SyncState().Draws - draws})
			}
		}
		job.colls[r.Rank()] = r.Collectives()
		if r.Rank() == 0 {
			s := r.SyncState()
			job.draws, job.cells = s.Draws, s.Cells
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	job.dur, job.net = res.Duration, res.Net
	return job, runs
}

// TestReplayMatchesPerRankOracle runs the seeded measurements of
// TestMeasureMatchesPerRankOracle with the op declared invariant and no
// observer, so that Measure records a certified repetition's copies
// instead of simulating them, and compares them with the per-rank
// reference, which simulates every repetition. Besides the linear
// gather, the generator picks ops that leave a message on the wire or
// undelivered at each repetition's close, or call a SharedCell or
// HardSync, and measurements that start with a message on the wire for
// the first repetition to take. Every rank's measurements and
// collective sequence, and the job's duration, traffic, escalation
// draws and SharedCell calls, must be identical; the second measurement
// of each job starts from the state the first one's copies left. The
// same job under an observer must simulate every repetition. The
// generator must reach a replay and each refusal: a fault plan, an
// escalation draw and a change of order.
func TestReplayMatchesPerRankOracle(t *testing.T) {
	var replayed, faulted, drew, reordered int
	for seed := int64(1); seed <= 200; seed++ {
		// TestMeasureMatchesPerRankOracle's generator, then the op.
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(11)
		cfg := testConfig(n)
		cfg.Seed = seed
		if rng.Intn(2) == 0 {
			cfg.Profile = cluster.LAM()
		}
		if rng.Intn(2) == 0 {
			cfg.Faults = &faults.Plan{Loss: []faults.LinkLoss{{
				Src: faults.Any, Dst: faults.Any,
				Prob: 0.05 + 0.25*rng.Float64(), RTO: time.Millisecond,
			}}}
		}
		opts := Options{MinReps: 1 + rng.Intn(5), Retries: rng.Intn(3)}
		opts.MaxReps = opts.MinReps + rng.Intn(8)
		if rng.Intn(2) == 0 {
			opts.OutlierMAD = 3
		}
		if rng.Intn(2) == 0 {
			opts.RelErr = 0.002
		}
		timing := Timing(rng.Intn(2))
		designated := rng.Intn(n)
		m := []int{0, 1 << 10, 32 << 10, 100 << 10}[rng.Intn(4)]
		kind := []int{opGather, opGather, opGather, opPending, opBacklog, opCell, opSync}[rng.Intn(7)]
		lead := rng.Intn(4) == 0

		got, runs := runReplayJob(t, cfg, designated, timing, Invariant(opts), m, kind, lead, Measure)
		want, _ := runReplayJob(t, cfg, designated, timing, opts, m, kind, lead, measurePerRank)
		w := fmt.Sprintf("%+v", want)
		if g := fmt.Sprintf("%+v", got); g != w {
			t.Fatalf("seed %d (%d ranks, op %d, lead %v, %d B): the replayed job differs from the per-rank reference\n got %s\nwant %s",
				seed, n, kind, lead, m, g, w)
		}
		// An observed job simulates every repetition, so its trace
		// misses none.
		cfg.Obs = obs.NewTrace()
		observed, observedRuns := runReplayJob(t, cfg, designated, timing, Invariant(opts), m, kind, lead, Measure)
		if g := fmt.Sprintf("%+v", observed); g != w {
			t.Fatalf("seed %d: the observed job differs from the per-rank reference\n got %s\nwant %s", seed, g, w)
		}
		for i, run := range observedRuns {
			if reps := want.meas[0][i].Reps; run.ran != reps {
				t.Fatalf("seed %d: an observed measurement ran %d of its %d repetitions", seed, run.ran, reps)
			}
		}
		for i, run := range runs {
			reps := want.meas[0][i].Reps
			if run.ran < reps {
				replayed++
				if kind != opGather || cfg.Faults != nil {
					t.Fatalf("seed %d: op %d, lead %v, plan %v: %d of %d repetitions ran, want every one simulated",
						seed, kind, lead, cfg.Faults != nil, run.ran, reps)
				}
			}
			if reps < 2 || kind != opGather || lead {
				continue
			}
			switch {
			case cfg.Faults != nil:
				faulted++
			case run.draws > 0:
				drew++
			case run.ran >= 2 && run.ran < reps:
				// Nothing but the order refused the first repetition.
				reordered++
			}
		}
	}
	if replayed == 0 || faulted == 0 || drew == 0 || reordered == 0 {
		t.Fatalf("generated measurements: %d replayed, %d under a fault plan, %d drew, %d certified after an order change; want each above 0",
			replayed, faulted, drew, reordered)
	}
}
