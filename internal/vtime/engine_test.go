package vtime

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var end time.Duration
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.Sleep(5 * time.Millisecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 15*time.Millisecond {
		t.Fatalf("end = %v, want 15ms", end)
	}
	if e.Now() != 15*time.Millisecond {
		t.Fatalf("engine now = %v, want 15ms", e.Now())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) { p.Sleep(-time.Second) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		t.Fatalf("now = %v, want 0", e.Now())
	}
}

func TestParallelProcessesOverlap(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Go("p", func(p *Proc) { p.Sleep(100 * time.Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 100*time.Millisecond {
		t.Fatalf("10 parallel sleeps took %v, want 100ms", e.Now())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 8; i++ {
			e.Go("p", func(p *Proc) {
				p.Sleep(time.Duration(8-i%3) * time.Millisecond)
				order = append(order, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("missing completions: %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time fired out of order: %v", order)
		}
	}
}

// A callback a process schedules a delay after its own time fires at
// that instant.
func TestAfterCallback(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Go("a", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		p.Engine().At(p.Now()+3*time.Millisecond, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Millisecond {
		t.Fatalf("callback at %v, want 5ms", at)
	}
}

func TestAtClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := time.Duration(-1)
	e.Go("a", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		e.At(time.Millisecond, func() { fired = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 5*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamped to 5ms", fired)
	}
}

func TestGoFromProcess(t *testing.T) {
	e := NewEngine()
	var childEnd time.Duration
	e.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childEnd = c.Now()
		})
		p.Sleep(10 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 2*time.Millisecond {
		t.Fatalf("child ended at %v, want 2ms", childEnd)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		e.Go("p", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

// TestResourceFIFONoBarging serves waiters in arrival order: a process
// that asks for the resource at the very instant its holder lets go
// queues behind the processes already waiting, even though its resume
// pops before the woken waiter's.
func TestResourceFIFONoBarging(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var order []string
	e.Go("holder", func(p *Proc) { r.Use(p, 10*time.Millisecond) })
	for i, name := range []string{"first", "second"} {
		e.Go(name, func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			r.Use(p, time.Millisecond)
			order = append(order, name)
		})
	}
	e.Go("barger", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		r.Use(p, time.Millisecond)
		order = append(order, "barger")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []string{"first", "second", "barger"}) {
		t.Fatalf("order = %v, want [first second barger]", order)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

// TestCondBroadcastWakesInFIFO wakes waiters in the order they waited,
// not the order they were started.
func TestCondBroadcastWakesInFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var order []int
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(4-i) * time.Microsecond) // wait in order 4, 3, ..., 0
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{4, 3, 2, 1, 0}) {
		t.Fatalf("wake order = %v, want the wait order [4 3 2 1 0]", order)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if de.Blocked != 1 {
		t.Fatalf("blocked = %d, want 1", de.Blocked)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 4)
	var times []time.Duration
	for i := 0; i < 4; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(i*3) * time.Millisecond)
			b.Wait(p)
			times = append(times, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("only %d parties released", len(times))
	}
	for _, at := range times {
		if at != 9*time.Millisecond {
			t.Fatalf("release times %v, want all 9ms", times)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 2)
	rounds := 0
	for i := 0; i < 2; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			for r := 0; r < 5; r++ {
				p.Sleep(time.Duration(i+1) * time.Millisecond)
				b.Wait(p)
				if i == 0 {
					rounds++
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 5 {
		t.Fatalf("rounds = %d, want 5", rounds)
	}
	// Each round gated by the slower party (2ms).
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("now = %v, want 10ms", e.Now())
	}
}

func TestRunTwiceSequentially(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) { p.Sleep(time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Adding more work and running again continues from current time.
	e.Go("b", func(p *Proc) { p.Sleep(time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2*time.Millisecond {
		t.Fatalf("now = %v, want 2ms", e.Now())
	}
}

func TestProcessPanicSurfacesAsError(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaput")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected panic to surface as Run error")
	}
	if _, isDeadlock := err.(*DeadlockError); isDeadlock {
		t.Fatalf("got deadlock error, want panic error: %v", err)
	}
}

// Property: under random workloads the resource is a work-conserving
// FIFO server: each process is served in the order it asked, from the
// later of its request and the previous holder's release, and every
// process completes with the resource left idle.
func TestResourcePropertyRandomWorkload(t *testing.T) {
	for seed := 1; seed <= 8; seed++ {
		s := uint64(seed) * 0x9E3779B97F4A7C15
		rnd := func(n int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(n))
		}
		e := NewEngine()
		r := NewResource(e)
		type request struct{ at, hold, end time.Duration }
		var asked []*request // in the order the processes asked
		procs := rnd(10) + 2
		for i := 0; i < procs; i++ {
			hold := time.Duration(rnd(5)+1) * time.Millisecond
			delay := time.Duration(rnd(10)) * time.Millisecond
			e.Go("w", func(p *Proc) {
				p.Sleep(delay)
				req := &request{at: p.Now(), hold: hold}
				asked = append(asked, req)
				r.Use(p, hold)
				req.end = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(asked) != procs {
			t.Fatalf("seed %d: %d of %d processes asked", seed, len(asked), procs)
		}
		var free time.Duration
		for i, req := range asked {
			free = max(free, req.at) + req.hold
			if req.end != free {
				t.Fatalf("seed %d: request %d (at %v, hold %v) ended at %v, want %v", seed, i, req.at, req.hold, req.end, free)
			}
		}
		if r.busy || len(r.waiters) != 0 {
			t.Fatalf("seed %d: resource not drained", seed)
		}
	}
}

// Property: virtual time observed by any process is non-decreasing
// across arbitrary interleavings of sleeps and synchronization.
func TestClockMonotonicityProperty(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	r := NewResource(e)
	violated := false
	for i := 0; i < 12; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			last := p.Now()
			check := func() {
				if p.Now() < last {
					violated = true
				}
				last = p.Now()
			}
			p.Sleep(time.Duration(i%4) * time.Millisecond)
			check()
			r.Use(p, time.Millisecond)
			check()
			if i%3 == 0 {
				c.Broadcast()
			} else {
				p.Sleep(time.Duration(i) * time.Microsecond)
			}
			check()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if violated {
		t.Fatal("virtual clock went backwards")
	}
}

// A process parked when Run drains stays parked across the
// DeadlockError and resumes in a later Run, once an event wakes it.
func TestParkedProcessResumesInLaterRun(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woke := time.Duration(-1)
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		woke = p.Now()
	})
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) || de.Blocked != 1 {
		t.Fatalf("first Run: err = %v, want a DeadlockError with 1 blocked", err)
	}
	e.At(5*time.Millisecond, c.Broadcast)
	if err := e.Run(); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if woke != 5*time.Millisecond {
		t.Fatalf("waiter resumed at %v, want 5ms", woke)
	}
}

// Close ends the processes a deadlocked run left parked: each body
// unwinds through its deferred calls, which dispatch no event even when
// they park again, its goroutine ends, and the engine runs again only
// after Reset, then like a new one.
func TestCloseEndsParkedProcesses(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() {
				unwound++
				p.Sleep(time.Millisecond)
				t.Error("a closed process resumed from Sleep")
			}()
			p.Sleep(time.Duration(i) * time.Millisecond)
			c.Wait(p)
			t.Error("a closed process resumed")
		})
	}
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) || de.Blocked != 3 {
		t.Fatalf("Run: err = %v, want a DeadlockError with 3 blocked", err)
	}
	before := runtime.NumGoroutine()
	e.Close()
	if after := runtime.NumGoroutine(); unwound != 3 || after != before-3 {
		t.Fatalf("Close unwound %d of 3 bodies and left %d goroutines of %d", unwound, after, before)
	}
	if err := e.Run(); !errors.Is(err, errClosed) {
		t.Fatalf("Run after Close: err = %v, want %v", err, errClosed)
	}
	e.Reset()
	e.Go("p", func(p *Proc) { p.Sleep(time.Millisecond) })
	if err := e.Run(); err != nil || e.Now() != time.Millisecond {
		t.Fatalf("after Close and Reset: err = %v at %v, want nil at 1ms", err, e.Now())
	}
}

// A callback's panic is re-raised from Run on the caller's stack, also
// when the callback ran while a process was dispatching events.
func TestCallbackPanicReraisedFromRun(t *testing.T) {
	e := NewEngine()
	e.Go("sleeper", func(p *Proc) { p.Sleep(10 * time.Millisecond) })
	e.At(time.Millisecond, func() { panic("callback boom") })
	var err error
	raised := func() (r any) {
		defer func() { r = recover() }()
		err = e.Run()
		return nil
	}()
	if raised != "callback boom" {
		t.Fatalf("Run raised %v and returned %v, want it to re-raise the callback's panic", raised, err)
	}
}

// Exit unwinds the body and runs its deferred calls without failing the
// run; a panic whose value is an error fails the run with an error that
// unwraps to it.
func TestExitRunsDeferredAndErrorPanicUnwraps(t *testing.T) {
	e := NewEngine()
	deferred := false
	e.Go("crash", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(time.Millisecond)
		p.Exit()
		t.Error("Exit returned")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Exit failed the run: %v", err)
	}
	if !deferred {
		t.Fatal("Exit did not run the body's deferred call")
	}

	bad := errors.New("bad input")
	e = NewEngine()
	e.Go("fail", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic(fmt.Errorf("collective: %w", bad))
	})
	if err := e.Run(); !errors.Is(err, bad) {
		t.Fatalf("err = %v, want one that unwraps to %v", err, bad)
	}
}

// Go from an event callback starts a process at the callback's time,
// whether Run or a dispatching process runs the callback.
func TestGoFromCallback(t *testing.T) {
	e := NewEngine()
	var ends []time.Duration
	start := func() {
		e.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			ends = append(ends, c.Now())
		})
	}
	e.At(2*time.Millisecond, start) // popped by Run: no process is live
	e.At(5*time.Millisecond, func() {
		e.Go("sleeper", func(p *Proc) { p.Sleep(10 * time.Millisecond) })
	})
	e.At(7*time.Millisecond, start) // popped by the sleeper's coroutine
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 || ends[0] != 3*time.Millisecond || ends[1] != 8*time.Millisecond {
		t.Fatalf("children ended at %v, want [3ms 8ms]", ends)
	}
}

// barrierRun runs n processes through one Barrier; each calls inside
// once the barrier releases it.
func barrierRun(t *testing.T, n int, inside func()) {
	e := NewEngine()
	b := NewBarrier(e, n)
	for i := 0; i < n; i++ {
		e.Go("p", func(p *Proc) {
			b.Wait(p)
			inside()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// A warm run allocates its processes and their scheduling, not a
// goroutine, channel or closure per process: the workers of earlier
// runs run the bodies.
func TestWarmRunAllocsPerProcess(t *testing.T) {
	const procs = 16
	run := func() { barrierRun(t, procs, func() {}) }
	run() // warm-up: leaves at least procs idle workers
	n := testing.AllocsPerRun(20, run)
	t.Logf("a warm %d-process barrier run allocates %v objects", procs, n)
	if n > 3*procs {
		t.Fatalf("a warm %d-process barrier run allocates %v objects, want at most %d", procs, n, 3*procs)
	}
}

// A warm run starts no goroutine: every live process runs on an idle
// worker left by an earlier run.
func TestWarmRunStartsNoGoroutine(t *testing.T) {
	const procs = 16
	barrierRun(t, procs, func() {}) // warm-up
	before := runtime.NumGoroutine()
	most := 0
	barrierRun(t, procs, func() { most = max(most, runtime.NumGoroutine()) })
	if most != before {
		t.Fatalf("%d goroutines inside a warm %d-process run, %d before it", most, procs, before)
	}
}

// A worker the full idle list cannot take is stopped, so its goroutine
// exits instead of staying parked.
func TestFullIdleListStopsWorker(t *testing.T) {
	idleWorkers.Lock()
	saved := idleWorkers.ws
	idleWorkers.ws = nil // the process below takes a new worker
	idleWorkers.Unlock()
	defer func() {
		idleWorkers.Lock()
		idleWorkers.ws = saved
		idleWorkers.Unlock()
	}()
	e := NewEngine()
	during := 0
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		// Fill the list while the body runs (nil entries stand in for
		// idle workers; nothing takes them before the deferred restore).
		idleWorkers.Lock()
		idleWorkers.ws = make([]*worker, maxIdleWorkers)
		idleWorkers.Unlock()
		during = runtime.NumGoroutine()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != during-1 {
		t.Fatalf("%d goroutines after the run, %d while its process ran: the worker was not stopped", after, during)
	}
}

// Engines running on several goroutines at once share the idle list:
// every run completes as it would alone, on workers that other runs
// left behind.
func TestConcurrentEnginesShareWorkers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				e := NewEngine()
				b := NewBarrier(e, 8)
				sum := 0
				for k := 0; k < 8; k++ {
					e.Go("p", func(p *Proc) {
						p.Sleep(time.Duration(k) * time.Millisecond)
						b.Wait(p)
						sum += k
					})
				}
				if err := e.Run(); err != nil {
					t.Error(err)
					return
				}
				if sum != 28 || e.Now() != 7*time.Millisecond {
					t.Errorf("run %d on goroutine %d: sum %d at %v, want 28 at 7ms", i, g, sum, e.Now())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fireFunc adapts a function to Handler for AtHandler.
type fireFunc func()

func (f fireFunc) Fire() { f() }

// Property: whatever mix of Sleep(0), Sleep(d), At, AtHandler and Cond
// broadcasts a simulation schedules — events due now go to the FIFO, later
// ones to the heap — every event fires exactly once, in the order of a
// reference sort of all of them by (time, sequence).
func TestEventsFireInTimeSequenceOrder(t *testing.T) {
	type key struct {
		t   time.Duration
		seq uint64
	}
	for seed := uint64(1); seed <= 40; seed++ {
		s := seed * 0x9E3779B97F4A7C15
		rnd := func(n int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(n))
		}
		e := NewEngine()
		c := NewCond(e)
		var sched []key // by event id
		var fired []int // event ids in firing order
		waiting := map[*Proc]int{}

		// queued records an event queued at t (clamped to now) with the
		// sequence number seq, and returns its id.
		queued := func(t time.Duration, seq uint64) int {
			sched = append(sched, key{max(t, e.now), seq})
			return len(sched) - 1
		}
		sleep := func(p *Proc, d time.Duration) {
			id := queued(e.now+max(d, 0), e.seq+1)
			p.Sleep(d)
			fired = append(fired, id)
		}
		// wake wakes every waiter, recording the resume events it
		// queues in waiter order.
		wake := func() {
			for i, w := range c.waiters {
				sched[waiting[w.p]] = key{e.now, e.seq + uint64(i) + 1}
			}
			c.Broadcast()
		}
		var schedule func(depth int)
		schedule = func(depth int) {
			d := time.Duration(rnd(4)-1) * time.Millisecond // -1 to 2 ms: in the past, now and later
			var id int
			fire := func() {
				fired = append(fired, id)
				if depth < 2 && rnd(3) == 0 {
					schedule(depth + 1) // from engine context, often due now
				}
				if rnd(4) == 0 {
					wake()
				}
			}
			if rnd(2) == 0 {
				e.At(e.now+d, fire)
			} else {
				e.AtHandler(e.now+d, fireFunc(fire))
			}
			id = queued(e.now+d, e.seq)
		}

		const procs = 6
		done := 0
		for i := 0; i < procs; i++ {
			id := queued(e.now, e.seq+1)
			e.Go("p", func(p *Proc) {
				fired = append(fired, id)
				for step := 0; step < 30; step++ {
					switch rnd(6) {
					case 0:
						sleep(p, 0)
					case 1:
						sleep(p, time.Duration(rnd(3)+1)*time.Millisecond)
					case 2:
						schedule(0)
					case 3:
						waiting[p] = queued(-1, 0) // the wake fills in time and sequence
						c.Wait(p)
						fired = append(fired, waiting[p])
						delete(waiting, p)
					case 4:
						wake()
					case 5:
						schedule(0)
						sleep(p, 0)
					}
				}
				done++
			})
		}
		// The ticker wakes every waiter each millisecond until all the
		// processes have finished, so no process waits for good.
		id := queued(e.now, e.seq+1)
		e.Go("ticker", func(p *Proc) {
			fired = append(fired, id)
			for done < procs {
				sleep(p, time.Millisecond)
				wake()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := make([]int, len(sched))
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(a, b int) int {
			if sched[a].t != sched[b].t {
				return cmp.Compare(sched[a].t, sched[b].t)
			}
			return cmp.Compare(sched[a].seq, sched[b].seq)
		})
		if !slices.Equal(fired, want) {
			t.Fatalf("seed %d: %d events fired in order\n%v\nwant (time, sequence) order\n%v", seed, len(fired), fired, want)
		}
		if e.fifo.n != 0 || len(e.heap.ev) != 0 {
			t.Fatalf("seed %d: queues not drained", seed)
		}
	}
}

// A reset engine runs a simulation exactly as a new engine does, after
// a run that ended cleanly or one that deadlocked, and gives the
// finished processes' structs to the next run's processes; a process
// left parked keeps its struct.
func TestResetEngineRerunsLikeNew(t *testing.T) {
	// sim runs three processes through a barrier and a resource, and
	// returns their end times and Procs.
	sim := func(e *Engine) ([]time.Duration, []*Proc) {
		b := NewBarrier(e, 3)
		r := NewResource(e)
		ends := make([]time.Duration, 3)
		procs := make([]*Proc, 3)
		for i := range procs {
			procs[i] = e.Go("p", func(p *Proc) {
				p.Sleep(time.Duration(i) * time.Millisecond)
				b.Wait(p)
				r.Use(p, time.Millisecond)
				ends[i] = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return ends, procs
	}
	want, _ := sim(NewEngine())

	e := NewEngine()
	_, first := sim(e)
	e.Reset()
	got, again := sim(e)
	if !slices.Equal(got, want) || e.Now() != want[2] {
		t.Fatalf("reset engine ended at %v (clock %v), new engine at %v", got, e.Now(), want)
	}
	if !slices.Equal(again, first) {
		t.Fatal("the rerun did not reuse the finished processes' structs")
	}

	// A deadlocked run leaves a process parked: Reset gives up its
	// struct, and the next run is again that of a new engine.
	e.Reset()
	stuck := e.Go("stuck", func(p *Proc) { NewCond(e).Wait(p) })
	var de *DeadlockError
	if err := e.Run(); !errors.As(err, &de) {
		t.Fatalf("err = %v, want a DeadlockError", err)
	}
	e.Reset()
	got, again = sim(e)
	if !slices.Equal(got, want) {
		t.Fatalf("after a deadlock the reset engine ended at %v, want %v", got, want)
	}
	if slices.Contains(again, stuck) {
		t.Fatal("Go handed out the struct of a process still parked in its body")
	}
}
