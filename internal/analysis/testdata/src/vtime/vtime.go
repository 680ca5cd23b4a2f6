// Package vtime is a fixture stand-in for the simulator kernel: it
// reproduces the spawn/scheduling API shape the vtimeblock analyzer
// seeds its context from (a package whose import path ends in "vtime"
// with Engine.Go/At methods).
package vtime

// Proc is a simulated process handle.
type Proc struct{ id int }

// Sleep advances the process's virtual time.
func (p *Proc) Sleep(d int) {}

// Engine is the discrete-event kernel.
type Engine struct{ now int }

// Go spawns a process; body runs in virtual-time context.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{}
	body(p)
	return p
}

// At schedules fn in engine context at absolute time t.
func (e *Engine) At(t int, fn func()) { fn() }

// Cond is the virtual-time condition variable procs should use.
type Cond struct{}

// Wait parks the process in virtual time.
func (c *Cond) Wait(p *Proc) {}

// Broadcast wakes all virtual-time waiters.
func (c *Cond) Broadcast() {}
