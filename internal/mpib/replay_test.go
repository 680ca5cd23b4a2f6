package mpib

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// The ops of the replay oracle: each run of one makes the same calls,
// given the same simulated state.
const (
	opGather  = iota // a linear gather at the designated rank
	opPending        // the gather; a message left on the wire at the close, for the next run to take
	opBacklog        // the gather; a message left undelivered at the close, for the next run to take
	opCell           // the gather, then a SharedCell call on every rank
	opSync           // the gather, then a HardSync
	opHalves         // the gather, then one of half the block, whose flows escalate less often
	opRace           // the gather amid messages whose order follows the release order, and whose close order an escalation reverses
	opCellEsc        // the gather, then SharedCell calls if it escalated, on which the next runs depend
)

// copyable reports whether a run of op kind can be copied: it leaves
// nothing pending at its close and calls no SharedCell or HardSync when
// it escalates nothing.
func copyable(kind int) bool { return kind == opGather || kind >= opHalves }

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

// replayRun is one measurement of a replay-oracle job as its designated
// rank saw it: how often its op ran, how many escalation draws the job
// made meanwhile, and whether copies followed a run that escalated.
type replayRun struct {
	ran, draws int
	resumed    bool
}

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
			// The designated rank, the gathers' root, ends its part of a
			// run once every flow of the run that can escalate has met
			// its draw. Skipped copies move its collective sequence on
			// between two runs.
			escalated, resumed, colls := false, false, 0
			noteCopies := func() {
				if escalated && r.Collectives() > colls {
					resumed = true
				}
			}
			meas := measure(r, designated, timing, opts, func() {
				ran++
				me := r.Rank()
				esc := 0
				if me == designated {
					noteCopies()
					esc = r.SyncState().Net.Escalations
					defer func() {
						escalated, colls = r.SyncState().Net.Escalations > esc, r.Collectives()
					}()
				}
				if lead && me == peer {
					r.RecvTimeout(designated, 2, time.Millisecond)
				}
				// opRace's ranks: a and b send to the designated rank at
				// the same instant, so it receives first from the one the
				// release left first, and tells b whether that was a, in
				// which case b waits a millisecond; after the gather, a
				// waits for the designated rank and b sleeps 20 ms, so a
				// run whose gather escalated releases b before a.
				a, b := (designated+1)%n, (designated+2)%n
				switch { // each takes the last run's message if it has arrived
				case kind == opPending && me == peer:
					r.RecvTimeout(designated, 1, time.Nanosecond)
				case kind == opBacklog && me == designated:
					r.RecvTimeout(peer, 3, time.Nanosecond)
				case kind == opBacklog && me == peer:
					r.Send(designated, 3, nil)
				case kind == opRace && (me == a || me == b):
					r.Send(designated, 4, nil)
					if me == b {
						if first, _ := r.Recv(designated, 5); len(first) > 0 {
							r.Sleep(time.Millisecond)
						}
					}
				case kind == opRace && me == designated:
					_, first := r.Recv(mpi.AnySource, 4)
					r.Recv(mpi.AnySource, 4)
					if first.Source == a {
						r.Send(b, 5, mpi.ZeroPayload(1))
					} else {
						r.Send(b, 5, nil)
					}
				case kind == opCellEsc:
					// A nanosecond per SharedCell call the job has made:
					// the runs depend on the calls so far.
					r.Sleep(time.Duration(r.SyncState().Cells))
				}
				t0 := r.Now()
				r.Gather(mpi.Linear, designated, block)
				switch {
				case kind == opPending && me == designated:
					r.Send(peer, 1, block) // still on the wire when the repetition closes
				case kind == opCell:
					r.SharedCell()
				case kind == opSync:
					r.HardSync()
				case kind == opHalves:
					r.Gather(mpi.Linear, designated, block[:m/2])
				case kind == opRace && me == designated:
					r.Send(a, 6, nil)
				case kind == opRace && me == a:
					r.Recv(designated, 6)
				case kind == opRace && me == b:
					r.Sleep(20 * time.Millisecond)
				case kind == opCellEsc:
					// An escalation stalls the gather for at least 180 ms.
					var slow []byte
					if me == designated && r.Now()-t0 > 100*time.Millisecond {
						slow = mpi.ZeroPayload(1)
					}
					if len(r.Bcast(designated, slow)) > 0 {
						r.SharedCell()
					}
				}
			})
			job.meas[r.Rank()] = append(job.meas[r.Rank()], meas)
			if r.Rank() == designated {
				noteCopies()
				runs = append(runs, replayRun{ran, r.SyncState().Draws - draws, resumed})
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
// the first repetition to take; and, fault-free under LAM with 20
// repetitions, ops whose copies meet escalations: a second gather of
// half the block, whose draws meet a lower probability than the
// first's, messages whose order follows the release order around a
// close order that an escalation reverses, and SharedCell calls after
// an escalation, on which the later runs depend. Every rank's
// measurements and collective sequence, and the job's duration,
// traffic, escalation draws and SharedCell calls, must be identical;
// the second measurement of each job starts from the state the first
// one's copies left. The same job under an observer must simulate every
// repetition. The generator must reach a replay and each refusal (a
// fault plan and a change of order), measurements that drew from the
// escalation randomness and still recorded copies, a lookahead that
// found a value that could escalate, and copies that resumed after a
// repetition that escalated.
func TestReplayMatchesPerRankOracle(t *testing.T) {
	var replayed, faulted, drew, reordered, refused, resumed int
	defer func(look func(*mpi.Rank, int, float64) bool) { lookahead = look }(lookahead)
	look := lookahead
	lookahead = func(r *mpi.Rank, d int, p float64) bool {
		ok := look(r, d, p)
		if !ok {
			refused++
		}
		return ok
	}
	for seed := int64(1); seed <= 200; seed++ {
		c, rng := drawOracleCase(seed)
		cfg, designated, timing, opts, m := c.cfg, c.designated, c.timing, c.opts, c.m
		n := cfg.Cluster.N()
		kind := []int{opGather, opGather, opGather, opPending, opBacklog, opCell, opSync, opHalves, opRace, opCellEsc}[rng.Intn(10)]
		lead := rng.Intn(4) == 0
		if kind == opRace && n < 3 {
			kind = opGather
		}
		if kind >= opHalves {
			// These ops exist to reach the copies around escalations:
			// fault-free, under LAM, with blocks whose halves lie inside
			// its irregular region too, and the gather scan's 20
			// repetitions.
			cfg.Faults, cfg.Profile, m = nil, cluster.LAM(), (12+rng.Intn(40))<<10
			opts.MinReps, opts.MaxReps = 20, 20
		}

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
				if !copyable(kind) || cfg.Faults != nil {
					t.Fatalf("seed %d: op %d, lead %v, plan %v: %d of %d repetitions ran, want every one simulated",
						seed, kind, lead, cfg.Faults != nil, run.ran, reps)
				}
			}
			if run.resumed {
				resumed++
			}
			if reps < 2 || !copyable(kind) || lead {
				continue
			}
			switch {
			case cfg.Faults != nil:
				faulted++
			case run.draws > 0:
				if run.ran < reps {
					drew++
				}
			case run.ran >= 2 && run.ran < reps:
				// Nothing but the order refused the first repetition.
				reordered++
			}
		}
	}
	if replayed == 0 || faulted == 0 || drew == 0 || reordered == 0 || refused == 0 || resumed == 0 {
		t.Fatalf("generated measurements: %d replayed, %d under a fault plan, %d drew and recorded copies, %d certified after an order change, %d lookaheads refused, %d resumed copies after an escalation; want each above 0",
			replayed, faulted, drew, reordered, refused, resumed)
	}
}
