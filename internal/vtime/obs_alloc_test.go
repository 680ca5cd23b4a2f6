package vtime

// The allocation behaviour of the kernel's hot path: the event loop
// with tracing off and on, and the Cond/Barrier wake cycle every
// measurement repetition takes. Timings are measured by the bench/
// harness, not here.

import (
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
