package vtime

import (
	"slices"
	"time"
)

// Resource is a facility that one process holds at a time in virtual
// time, such as a node's CPU: a process takes it, holds it for a
// stretch of virtual time, and gives it back. Waiters are served
// strictly in arrival order, which keeps simulations deterministic and
// fair.
type Resource struct {
	e       *Engine
	busy    bool
	waiters []*resWaiter
}

type resWaiter struct {
	p       *Proc
	granted bool
}

// NewResource returns an idle resource bound to the engine.
func NewResource(e *Engine) *Resource { return &Resource{e: e} }

// Use takes the resource, waiting behind every earlier waiter while
// another process holds it, holds it for d of virtual time, and hands
// it to the next waiter or leaves it idle.
func (r *Resource) Use(p *Proc, d time.Duration) {
	if r.busy {
		w := &p.resW // reused node: p blocks on at most one queue at a time
		w.p, w.granted = p, false
		r.waiters = append(r.waiters, w)
		for !w.granted {
			p.blockSync()
		}
	}
	r.busy = true
	p.Sleep(d)
	if len(r.waiters) == 0 {
		r.busy = false
		return
	}
	w := r.waiters[0]
	w.granted = true
	r.waiters = r.waiters[1:]
	r.e.wakeSync(w.p)
}

// Cond is a condition variable in virtual time. Processes Wait on it
// and are woken by Broadcast; as with sync.Cond, waiters must re-check
// their predicate in a loop.
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

// Wait parks the calling process until a Broadcast.
func (c *Cond) Wait(p *Proc) {
	w := &p.condW // reused node: p blocks on at most one queue at a time
	w.p, w.woken = p, false
	c.waiters = append(c.waiters, w)
	for !w.woken {
		p.blockSync()
	}
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
	order   []*Proc // the arriving generation's parties, in arrival order
	last    []*Proc // the last released generation's parties, in release order
	quiet   bool    // the last release found no event queued and no other process parked
	epoch   int     // releases whose order differed from that of the release before them
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(e *Engine, parties int) *Barrier {
	if parties <= 0 {
		panic("vtime: barrier parties must be positive")
	}
	procs := make([]*Proc, 2*parties)
	return &Barrier{e: e, parties: parties, cond: NewCond(e), order: procs[:parties], last: procs[parties:]}
}

// Wait blocks until all parties have arrived, then releases them all at
// the same virtual instant, in the order they arrived.
func (b *Barrier) Wait(p *Proc) {
	gen := b.gen
	b.order[b.arrived] = p
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		b.quiet = b.e.pending() == 0 && b.e.blockedSync == b.parties-1
		if !slices.Equal(b.order, b.last) {
			b.epoch++
		}
		b.order, b.last = b.last, b.order
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

// Released returns the number of releases so far, the order epoch (the
// number of releases whose order differed from that of the release
// before them, so two releases of one epoch released their parties in
// one order), and whether the last release found nothing else pending
// (no event queued, no process parked but its parties): what a harness
// reads to tell whether the stretch after a release would run as the
// stretch after an earlier one ran.
func (b *Barrier) Released() (n, epoch int, quiet bool) { return b.gen, b.epoch, b.quiet }
