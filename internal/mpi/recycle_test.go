package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
)

// dropIdleWorlds empties the idle list, so the next job builds a new
// world.
func dropIdleWorlds() {
	idleWorlds.Lock()
	defer idleWorlds.Unlock()
	clear(idleWorlds.ws)
	idleWorlds.ws, idleWorlds.ranks = idleWorlds.ws[:0], 0
}

// idle reports whether w is on the idle list.
func idle(w *World) bool {
	idleWorlds.Lock()
	defer idleWorlds.Unlock()
	return slices.Contains(idleWorlds.ws, w)
}

// recycleJob is one job of the recycling oracle.
type recycleJob struct {
	name   string
	cfg    Config // Obs is set by the oracle
	traced bool
	fails  bool
	body   func(r *Rank)
}

// jobOutcome is what a job showed: its result and error, its spans and
// counters (rendered once the whole sequence has run, so that an
// observer fed by a later job would show it), and its world.
type jobOutcome struct {
	res   Result
	err   string
	tr    *obs.Trace
	world *World
}

// recycleJobs is a sequence of jobs on one 8-node shape: three
// profiles, several seeds, fault plans, observers on and off,
// messages left unreceived, and runs that fail by deadlock, crash,
// timeout and panic.
func recycleJobs() []recycleJob {
	cl := func() *cluster.Cluster { return cluster.Table1().Prefix(8) }
	collectives := func(r *Rank) {
		n := r.Size()
		blocks := mkBlocks(n, 3000)
		// Every rank looks at the cell before rank 0 fills it.
		cell := r.SharedCell()
		if cell.V != nil {
			panic("shared cell holds a value from another job")
		}
		r.HardSync()
		if r.Rank() == 0 {
			cell.V = r.Now()
		}
		r.Scatter(Binomial, 1, blocks)
		r.Gather(Linear, 0, blocks[r.Rank()])
		r.GatherShape(Binomial, 0, 1000, 2, blocks[r.Rank()])
		r.GatherShape(Binary, 3, 0, 5, blocks[r.Rank()])
		r.Bcast(4, blocks[0])
		r.Reduce(0, []byte{byte(r.Rank())}, func(a, b []byte) []byte { a[0] += b[0]; return a })
		r.Barrier()
		r.Allgather(blocks[r.Rank()][:100])
		r.Alltoall(blocks)
		r.HardSync()
		if c, err := r.CommOf([]int{1, 3, 5, 7}); err == nil {
			c.Gather(Binomial, 0, blocks[r.Rank()])
			c.Barrier()
		}
	}
	manyToOne := func(r *Rank) {
		// Medium messages from every rank into rank 0 escalate under
		// TCP; two messages to rank 2 are never received, and none is
		// there when the job starts.
		if r.Rank() == 2 {
			if _, _, err := r.RecvTimeout(1, 9, 20*time.Microsecond); err == nil {
				panic("rank 2 received a message left over from another job")
			}
		}
		if r.Rank() == 0 {
			for i := 0; i < 3*(r.Size()-1); i++ {
				r.Recv(AnySource, 1)
			}
			return
		}
		for i := 0; i < 3; i++ {
			r.Send(0, 1, ZeroPayload(8<<10))
		}
		if r.Rank() == 1 {
			r.Send(2, 9, ZeroPayload(100))
			r.Send(2, 9, ZeroPayload(200))
		}
	}
	return []recycleJob{
		{name: "collectives", cfg: Config{Cluster: cl(), Seed: 1}, traced: true, body: collectives},
		{name: "escalations", cfg: Config{Cluster: cl(), Profile: cluster.LAM(), Seed: 2}, traced: true, body: manyToOne},
		{name: "faults", cfg: Config{Cluster: cl(), Profile: cluster.MPICH(), Seed: 3, Faults: &faults.Plan{
			Loss:       []faults.LinkLoss{{Src: 1, Dst: 0, Prob: 0.3, RTO: time.Millisecond}},
			Degrade:    []faults.LinkDegrade{{Src: faults.Any, Dst: 2, From: 0, Until: 5 * time.Millisecond, LatencyX: 3, RateX: 0.5}},
			Stragglers: []faults.Straggler{{Node: 3, CPUX: 2}},
		}}, traced: true, body: collectives},
		{name: "untraced escalations", cfg: Config{Cluster: cl(), Profile: cluster.LAM(), Seed: 4}, body: manyToOne},
		{name: "rendezvous timeout", cfg: Config{Cluster: cl(), Profile: cluster.MPICH().RendezvousAt(16 << 10), Seed: 5}, traced: true, body: func(r *Rank) {
			// Rank 1 never receives: rank 0's rendezvous send times out,
			// and the message stays in rank 1's mailbox.
			if r.Rank() == 0 {
				var te *TimeoutError
				if err := r.SendTimeout(1, 3, ZeroPayload(64<<10), 100*time.Microsecond); !errors.As(err, &te) {
					panic(fmt.Sprintf("SendTimeout returned %v, want a *TimeoutError", err))
				}
			}
		}},
		{name: "crash survived", cfg: Config{Cluster: cl(), Seed: 6, Faults: &faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 0}}}}, traced: true, body: func(r *Rank) {
			if r.Rank() == 2 {
				r.Sleep(time.Millisecond)
				var ce *CrashError
				if _, _, err := r.RecvTimeout(1, 7, time.Second); !errors.As(err, &ce) {
					panic(fmt.Sprintf("RecvTimeout returned %v, want a *CrashError", err))
				}
			}
		}},
		{name: "deadlock", cfg: Config{Cluster: cl(), Seed: 7}, traced: true, fails: true, body: func(r *Rank) {
			r.Send((r.Rank()+1)%r.Size(), 2, ZeroPayload(10))
			if r.Rank() == 3 {
				r.Recv(4, 5) // never sent
			}
		}},
		{name: "crash", cfg: Config{Cluster: cl(), Seed: 8, Faults: &faults.Plan{Crashes: []faults.Crash{{Node: 2, At: 100 * time.Microsecond}}}}, traced: true, fails: true, body: func(r *Rank) {
			r.Sleep(time.Millisecond)
			r.Gather(Linear, 0, ZeroPayload(100))
		}},
		{name: "timeout", cfg: Config{Cluster: cl(), Profile: cluster.LAM(), Seed: 9}, traced: true, fails: true, body: func(r *Rank) {
			r.Bcast(0, ZeroPayload(5000))
			if r.Rank() == 1 {
				if _, _, err := r.RecvTimeout(0, 4, time.Millisecond); err != nil {
					panic(err)
				}
			}
		}},
		{name: "panic", cfg: Config{Cluster: cl(), Seed: 10}, fails: true, body: func(r *Rank) {
			r.Gather(Binomial, 0, ZeroPayload(2000))
			if r.Rank() == 5 {
				panic("boom")
			}
			r.Barrier()
		}},
		{name: "collectives again", cfg: Config{Cluster: cl(), Profile: cluster.LAM(), Seed: 11}, traced: true, body: collectives},
		{name: "escalations again", cfg: Config{Cluster: cl(), Profile: cluster.LAM(), Seed: 2}, traced: true, body: manyToOne},
	}
}

// runJobs runs the jobs in order, each on a new world when fresh is
// set and otherwise on whatever world the idle list offers.
func runJobs(t *testing.T, jobs []recycleJob, fresh bool) []jobOutcome {
	t.Helper()
	dropIdleWorlds()
	out := make([]jobOutcome, len(jobs))
	for i, j := range jobs {
		if fresh {
			dropIdleWorlds()
		}
		cfg := j.cfg
		if j.traced {
			out[i].tr = obs.NewTrace()
			cfg.Obs = out[i].tr
		}
		res, err := Run(cfg, func(r *Rank) {
			if r.Rank() == 0 {
				out[i].world = r.w
			}
			j.body(r)
		})
		out[i].res, out[i].err = res, fmt.Sprint(err)
		if (err != nil) != j.fails {
			t.Fatalf("job %q: err = %v, want failure %v", j.name, err, j.fails)
		}
		// Only a job that succeeded puts its world back.
		if idle(out[i].world) == j.fails {
			t.Fatalf("job %q (err %v): world idle %v after the run", j.name, err, !j.fails)
		}
	}
	return out
}

// A job on a recycled world is the same job as on a new world: equal
// Result and error, equal message transcript and vtime counters, and
// no observer sees another job's spans. Failed jobs' worlds never go
// back on the idle list.
func TestRecycledWorldMatchesFresh(t *testing.T) {
	jobs := recycleJobs()
	fresh := runJobs(t, jobs, true)
	recycled := runJobs(t, jobs, false)
	defer dropIdleWorlds()
	reused := 0
	for i, j := range jobs {
		f, r := fresh[i], recycled[i]
		if r.res != f.res || r.err != f.err {
			t.Errorf("job %q: recycled world gave %+v, %s; new world %+v, %s", j.name, r.res, r.err, f.res, f.err)
		}
		if j.traced {
			if !reflect.DeepEqual(r.tr.Spans(), f.tr.Spans()) {
				t.Errorf("job %q: recycled world's transcript (%d spans) differs from the new world's (%d spans)", j.name, len(r.tr.Spans()), len(f.tr.Spans()))
			}
			if !reflect.DeepEqual(r.tr.Counters(), f.tr.Counters()) {
				t.Errorf("job %q: counters %v on the recycled world, %v on a new one", j.name, r.tr.Counters(), f.tr.Counters())
			}
		}
		if i > 0 && !jobs[i-1].fails {
			if r.world != recycled[i-1].world {
				t.Errorf("job %q did not run on the world job %q put back", j.name, jobs[i-1].name)
			}
			reused++
		}
		if i > 0 && f.world == fresh[i-1].world {
			t.Errorf("job %q ran on an old world with the idle list empty", j.name)
		}
	}
	if reused < len(jobs)/2 {
		t.Fatalf("only %d of %d jobs ran on a recycled world", reused, len(jobs))
	}
}

// Jobs on several goroutines at once share the idle list: every job
// returns what it returns alone, on worlds that other jobs put back.
func TestConcurrentRunsShareWorlds(t *testing.T) {
	job := func(seed int64) (Result, error) {
		cfg := Config{Cluster: cluster.Table1().Prefix(8), Profile: cluster.LAM(), Seed: seed}
		return Run(cfg, func(r *Rank) {
			blocks := mkBlocks(r.Size(), 6000)
			r.Gather(Binomial, 0, blocks[r.Rank()])
			r.Scatter(Linear, 3, blocks)
			r.HardSync()
		})
	}
	want := make([]Result, 8)
	for s := range want {
		res, err := job(int64(s))
		if err != nil {
			t.Fatal(err)
		}
		want[s] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s := (g + i) % len(want)
				res, err := job(int64(s))
				if err != nil {
					t.Error(err)
					return
				}
				if res != want[s] {
					t.Errorf("goroutine %d, job %d (seed %d): %+v, alone %+v", g, i, s, res, want[s])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A warm 16-rank job that only aligns its ranks allocates nothing: the
// recycled world brings its engine, network, rank table, processes and
// names, and the vtime workers run the bodies.
func TestWarmHardSyncRunAllocatesNothing(t *testing.T) {
	cfg := testConfig(16)
	run := func() {
		if _, err := Run(cfg, func(r *Rank) { r.HardSync() }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: leaves the world idle
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("a warm 16-rank HardSync job allocates %v objects, want 0", n)
	}
}

// A failed job's world is dropped, and the processes its run left
// parked end with it: after a warm-up, jobs that deadlock, crash, time
// out or panic leave no goroutine behind. Among them is a 16-rank Table
// I job in which rank 3 sleeps and then receives from rank 5, which
// never sends. Not parallel: it counts every goroutine of the program.
func TestFailedRunsLeaveNoGoroutine(t *testing.T) {
	jobs := []recycleJob{{name: "table1 deadlock", cfg: Config{Cluster: cluster.Table1(), Profile: cluster.LAM(), Seed: 1}, body: func(r *Rank) {
		if r.Rank() == 3 {
			r.Sleep(time.Millisecond)
			r.Recv(5, 1)
		}
	}}}
	for _, j := range recycleJobs() {
		if j.fails {
			jobs = append(jobs, j)
		}
	}
	run := func() {
		for _, j := range jobs {
			if _, err := Run(j.cfg, j.body); err == nil {
				t.Fatalf("job %q succeeded, want a failure", j.name)
			}
		}
	}
	run() // warm-up: leaves the idle workers the jobs need
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		run()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after five more rounds of %d failing jobs, %d before them", after, len(jobs), before)
	}
}
