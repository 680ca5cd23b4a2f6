package vtime

// The allocation behaviour of the kernel's hot path: the event loop
// with tracing off and on, and the Cond/Barrier wake cycle every
// measurement repetition takes. Timings are measured by the bench/
// harness, not here.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// mallocsDuring runs fn and returns the number of heap allocations it
// performed (whole-process; no test of this package runs in parallel).
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// tick is a prepared handler event that counts its firings: scheduling
// it with AtHandler allocates nothing.
type tick struct{ fired int }

func (t *tick) Fire() { t.fired++ }

// TestDisabledTracingZeroAlloc is the bench-smoke guard for the
// observability layer: with no observer installed, the event hot path
// stays allocation-free. Every obs hook on the path is a nil check, so
// a regression here means someone put work before the check. Each
// iteration dispatches a handler event and a resume, so the test also
// pins the deferred recover with which the engine runs a callback.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	run := func(n int) uint64 {
		eng := NewEngine()
		h := &tick{}
		eng.Go("ticker", func(p *Proc) {
			for i := 0; i < n; i++ {
				eng.AtHandler(p.Now(), h)
				p.Sleep(time.Microsecond)
			}
		})
		allocs := mallocsDuring(func() {
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if h.fired != n {
			t.Fatalf("the handler fired %d times, want %d", h.fired, n)
		}
		return allocs
	}
	run(100) // warm up the runtime (goroutine stacks, timer wheels)
	const n = 50000
	allocs := run(n)
	// Engine construction and the one proc are O(1); the 2n events must
	// contribute nothing. Allow the fixed setup a small budget.
	if allocs > 64 {
		t.Fatalf("disabled-tracing hot path allocated %d times over %d iterations; want O(1) setup only", allocs, n)
	}
}

// TestEnabledTracingCountsEvents pins the other side of the contract:
// installing an observer records every dispatched event without
// changing the simulated clock.
func TestEnabledTracingCountsEvents(t *testing.T) {
	const n = 1000
	run := func(tr *obs.Trace) time.Duration {
		eng := NewEngine()
		if tr != nil {
			eng.SetObserver(tr)
		}
		eng.Go("ticker", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	plain := run(nil)
	tr := obs.NewTrace()
	traced := run(tr)
	if plain != traced {
		t.Fatalf("observer changed the clock: %v vs %v", plain, traced)
	}
	if got := tr.Counter("vtime.events").Value(); got < n {
		t.Fatalf("vtime.events = %d, want >= %d", got, n)
	}
}

// TestCondBroadcastCycleZeroAlloc pins DESIGN §7's embedded wait nodes
// on the path every measurement repetition takes twice (mpi.HardSync is
// a vtime.Barrier): once warm, a cycle in which 16 processes Wait on the
// barrier's Cond and the last arrival Broadcasts allocates nothing. Two
// runs that differ only in their cycle count must allocate the same.
func TestCondBroadcastCycleZeroAlloc(t *testing.T) {
	const procs = 16
	run := func(cycles int) uint64 {
		eng := NewEngine()
		b := NewBarrier(eng, procs)
		for i := 0; i < procs; i++ {
			eng.Go("party", func(p *Proc) {
				for c := 0; c < cycles; c++ {
					b.Wait(p)
				}
			})
		}
		return mallocsDuring(func() {
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(100) // warm up the runtime (goroutine stacks, timer wheels)
	// The fewest allocations of three runs each: the runtime allocates
	// now and then on its own (a goroutine stack, a GC cycle's work), a
	// few times per run at most, while a queue that regrows costs at
	// least one allocation per cycle.
	fewest := func(cycles int) uint64 {
		m := run(cycles)
		for i := 0; i < 2; i++ {
			m = min(m, run(cycles))
		}
		return m
	}
	const short, long = 100, 2100
	base, allocs := fewest(short), fewest(long)
	if allocs > base+64 {
		t.Fatalf("%d extra Wait/Broadcast cycles over %d processes allocated %d times (%d vs %d); want none",
			long-short, procs, allocs-base, allocs, base)
	}
}

// TestWakeOrderedCycleZeroAlloc pins the ordered wake that the
// estimation rounds' barrier takes at every repetition: once warm, a
// cycle in which 16 processes Park and the last arrival wakes them all
// with WakeOrdered, itself at its own place, allocates nothing, whether
// it wakes them at the current instant or, every other cycle, at a
// later one. Two runs that differ only in their cycle count must
// allocate the same.
func TestWakeOrderedCycleZeroAlloc(t *testing.T) {
	const procs = 16
	run := func(cycles int) uint64 {
		eng := NewEngine()
		order := make([]*Proc, procs)
		arrived := 0
		for i := 0; i < procs; i++ {
			eng.Go("party", func(p *Proc) {
				order[i] = p
				for c := 0; c < cycles; c++ {
					if arrived++; arrived == procs {
						arrived = 0
						p.WakeOrdered(order, p.Now()+time.Duration(c%2)*time.Microsecond)
					}
					p.Park()
				}
			})
		}
		return mallocsDuring(func() {
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	run(100) // warm up the runtime (goroutine stacks, timer wheels)
	fewest := func(cycles int) uint64 {
		m := run(cycles)
		for i := 0; i < 2; i++ {
			m = min(m, run(cycles))
		}
		return m
	}
	const short, long = 100, 2100
	base, allocs := fewest(short), fewest(long)
	if allocs > base+64 {
		t.Fatalf("%d extra Park/WakeOrdered cycles over %d processes allocated %d times (%d vs %d); want none",
			long-short, procs, allocs-base, allocs, base)
	}
}

// TestWakeOrderedKeepsListOrder pins the order of an ordered wake:
// parked processes resume in list order, the caller at its own place,
// after the events already queued for the wake's instant and before the
// events queued for it later, whether that instant is the current one
// or a later one.
func TestWakeOrderedKeepsListOrder(t *testing.T) {
	const later = 5 * time.Microsecond
	eng := NewEngine()
	var ran []string
	ps := make([]*Proc, 3)
	names := []string{"a", "b", "c"}
	arrived := 0
	for i, name := range names {
		eng.Go(name, func(p *Proc) {
			ps[i] = p
			if arrived++; arrived == len(ps) {
				eng.At(p.Now(), func() { ran = append(ran, "due") })
				// The wake order: b, c, then a.
				if idle := p.WakeOrdered([]*Proc{ps[1], ps[2], ps[0]}, p.Now()); idle {
					t.Errorf("WakeOrdered reported an idle engine with an event due")
				}
			}
			p.Park()
			ran = append(ran, name)
			if arrived--; arrived == 0 {
				// The last to run wakes them all later: c, a, then b.
				at := p.Now() + later
				eng.At(at, func() { ran = append(ran, "due later") })
				p.WakeOrdered([]*Proc{ps[2], ps[0], ps[1]}, at)
				eng.At(at, func() { ran = append(ran, "queued after") })
			}
			p.Park()
			ran = append(ran, fmt.Sprintf("%s at %v", name, p.Now()))
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[due b c a due later c at 5µs a at 5µs b at 5µs queued after]"
	if got := fmt.Sprint(ran); got != want {
		t.Fatalf("ran %s, want %s", got, want)
	}
}

// TestWakeOrderedForLaterIsNotBlocked pins the blocked-process count
// that deadlock detection reads: a process that WakeOrdered names for a
// later instant is not blocked while it waits for that instant, and a
// run that then drains with another process parked for good reports
// that one as a deadlock, at the instant the queue drained.
func TestWakeOrderedForLaterIsNotBlocked(t *testing.T) {
	const at = 3 * time.Millisecond
	eng := NewEngine()
	var woke time.Duration
	sleeper := eng.Go("sleeper", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	eng.Go("waker", func(p *Proc) {
		// The sleeper started first, and is parked.
		if eng.blockedSync != 1 {
			t.Errorf("%d processes blocked before the wake, want 1", eng.blockedSync)
		}
		p.WakeOrdered([]*Proc{sleeper}, at)
		if eng.blockedSync != 0 {
			t.Errorf("%d processes blocked once the sleeper is woken for %v, want 0", eng.blockedSync, at)
		}
		p.Park() // for good: nothing names it again
	})
	err := eng.Run()
	var de *DeadlockError
	if !errors.As(err, &de) || de.Blocked != 1 || de.Time != at {
		t.Fatalf("Run: err = %v, want a DeadlockError with 1 blocked at %v", err, at)
	}
	if woke != at {
		t.Fatalf("the sleeper resumed at %v, want %v", woke, at)
	}
}
