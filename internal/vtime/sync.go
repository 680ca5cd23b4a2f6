package vtime

import (
	"fmt"
	"time"
)

// Resource is a FIFO counting semaphore in virtual time. It models a
// contended facility such as a CPU, a NIC or a switch port: a process
// acquires some units, holds them for a stretch of virtual time, and
// releases them. Waiters are served strictly in arrival order (no
// barging), which keeps simulations deterministic and fair.
type Resource struct {
	e        *Engine
	capacity int64
	inUse    int64
	waiters  []*resWaiter
	name     string
}

type resWaiter struct {
	p       *Proc
	n       int64
	granted bool
}

// NewResource returns a resource with the given capacity (units > 0).
func NewResource(e *Engine, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("vtime: resource capacity must be positive")
	}
	return &Resource{e: e, capacity: capacity, name: name}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the units currently held.
func (r *Resource) InUse() int64 { return r.inUse }

// Acquire blocks the calling process until n units are available and no
// earlier waiter is pending, then takes them. n must be in (0, capacity].
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("vtime: acquire %d of resource %q with capacity %d", n, r.name, r.capacity))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	w := &p.resW // reused node: p blocks on at most one queue at a time
	w.p, w.n, w.granted = p, n, false
	r.waiters = append(r.waiters, w)
	for !w.granted {
		p.blockSync()
	}
}

// TryAcquire takes n units if immediately available, without blocking.
// It reports whether the units were taken.
func (r *Resource) TryAcquire(n int64) bool {
	if n <= 0 || n > r.capacity {
		return false
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and wakes waiters that now fit, in FIFO order.
// It may be called from any process or from engine context.
func (r *Resource) Release(n int64) {
	if n <= 0 {
		panic("vtime: release of non-positive units")
	}
	r.inUse -= n
	if r.inUse < 0 {
		panic(fmt.Sprintf("vtime: resource %q released below zero", r.name))
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			break // strict FIFO: do not let later small requests barge
		}
		r.inUse += w.n
		w.granted = true
		r.waiters = r.waiters[1:]
		r.e.wakeSync(w.p)
	}
}

// Use acquires n units, holds them for d of virtual time, and releases
// them. It is the common "occupy facility for a service time" pattern.
func (r *Resource) Use(p *Proc, n int64, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// QueueLen returns the number of processes waiting on the resource.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Cond is a condition variable in virtual time. Processes Wait on it
// and are woken by Signal or Broadcast; as with sync.Cond, waiters must
// re-check their predicate in a loop.
type Cond struct {
	e       *Engine
	waiters []*condWaiter
}

type condWaiter struct {
	p     *Proc
	woken bool
}

// NewCond returns a condition variable bound to the engine.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait parks the calling process until a Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	w := &p.condW // reused node: p blocks on at most one queue at a time
	w.p, w.woken = p, false
	c.waiters = append(c.waiters, w)
	for !w.woken {
		p.blockSync()
	}
}

// Signal wakes the earliest waiter, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	w.woken = true
	c.e.wakeSync(w.p)
}

// Broadcast wakes every waiter. Waking only schedules each waiter's
// resume, so none can queue again during the loop; the emptied array
// is kept for the next round of waiters.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.woken = true
		c.e.wakeSync(w.p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Barrier synchronizes a fixed party of processes at zero virtual cost.
// It is harness machinery (aligning measurement repetitions), not a
// model of a network barrier; the mpi package provides a costed one.
type Barrier struct {
	e       *Engine
	parties int
	arrived int
	gen     int
	cond    *Cond
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(e *Engine, parties int) *Barrier {
	if parties <= 0 {
		panic("vtime: barrier parties must be positive")
	}
	return &Barrier{e: e, parties: parties, cond: NewCond(e)}
}

// Wait blocks until all parties have arrived, then releases them all at
// the same virtual instant.
func (b *Barrier) Wait(p *Proc) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		// Let the released waiters run before the releaser continues, so
		// every party observes the same wake ordering discipline.
		p.Yield()
		return
	}
	for gen == b.gen {
		b.cond.Wait(p)
	}
}
