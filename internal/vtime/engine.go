//go:build go1.23

// Package vtime implements a deterministic discrete-event simulation
// kernel with coroutine processes.
//
// An Engine owns a virtual clock and an event queue. Each process body
// runs in a coroutine (iter.Pull), and Run is the engine's only
// goroutine: exactly one of Run and the processes runs at any moment,
// and control passes between them by coroutine switches, never through
// the Go scheduler. Events with equal timestamps fire in scheduling
// order, which makes a simulation fully deterministic for a
// deterministic program.
//
// The event loop is allocation-free on its dominant path. Events are
// a typed union — no interface boxing, no per-event closure — held in
// two queues: an event due at the current instant joins a FIFO ring,
// a later one a hand-rolled slice-backed min-heap. A parked process
// pops events in its own coroutine, so a process that sleeps and is
// the next to wake simply continues, with no switch at all.
// Resuming a different process costs two coroutine switches: the
// parked process yields it to Run, and Run switches to it. The
// coroutines come from a package-wide list of idle workers, each of
// which runs one process body after another, so a simulation reuses
// the coroutines, and the grown stacks, of earlier simulations. Reset
// returns an engine to its state at NewEngine for another simulation,
// keeping its grown queues and the Proc structs of finished processes.
//
// The package provides the synchronization primitives needed by the
// network simulator built on top of it: Sleep (advance local time),
// Resource (a facility one process holds at a time, in arrival order,
// used for CPUs) and Cond (condition variable in virtual time, used
// for mailboxes).
package vtime

import (
	"errors"
	"fmt"
	"iter" // go1.23: the build line raises this file's language version above go.mod's
	"sync"
	"time"

	"repro/internal/obs"
)

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now  time.Duration
	seq  uint64
	heap eventHeap // events due after now
	fifo eventRing // events due at now, in scheduling order

	// procs holds the engine's Proc structs: procs[:started] went to
	// the processes Go started since the last Reset, and procs[started:]
	// are earlier simulations' finished ones, which Go hands out next.
	procs   []*Proc
	started int

	blockedSync int // processes parked in a Resource/Cond queue (no pending event)

	running bool
	failErr error // first process panic
	cbPanic any   // panic raised by an event callback, re-raised from Run

	// Observability. The counters are cached at SetObserver time so the
	// dispatch loops pay one nil check per event when tracing is off and
	// a few atomic adds when it is on — never a lookup, never an allocation.
	obsTrace    *obs.Trace
	obsEvents   *obs.Counter // events dispatched (resume + call + handler)
	obsResumes  *obs.Counter // events that resumed a process
	obsHandoffs *obs.Counter // resumes that switched coroutines (all but self-resumes)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to the state NewEngine gives it, for another
// simulation: the clock and sequence at zero, no queued events, no
// observer and no failure. It keeps the queues' grown arrays, and the
// Proc structs of finished processes for the next Go calls, so a Proc
// is valid only while its body runs. A process still parked in its
// body (the run failed or deadlocked, and Close did not end it) keeps
// its struct, which the engine gives up. Reset must not be called
// during Run.
func (e *Engine) Reset() {
	if e.running {
		panic("vtime: Reset during Run")
	}
	kept := e.procs[:0]
	for _, p := range e.procs {
		if p.w == nil { // ended, or never resumed: no coroutine holds it
			*p = Proc{}
			kept = append(kept, p)
		}
	}
	clear(e.procs[len(kept):])
	e.heap.reset()
	e.fifo.reset()
	*e = Engine{heap: e.heap, fifo: e.fifo, procs: kept}
}

// errClosed is the failure a closed engine reports until Reset.
var errClosed = errors.New("vtime: engine closed")

// Close ends the processes that a failed or deadlocked Run left parked
// in their bodies, and with them their coroutines, which would
// otherwise stay parked for as long as the program runs. Each body
// unwinds as if it had called Exit, running its deferred calls, and
// dispatches no event meanwhile. Call it before dropping an engine whose
// Run failed; the engine runs again only after Reset. Close must not be
// called during Run.
func (e *Engine) Close() {
	if e.running {
		panic("vtime: Close during Run")
	}
	if e.failErr == nil {
		e.failErr = errClosed
	}
	for _, p := range e.procs {
		if w := p.w; w != nil {
			w.stop() // the parked yield reports false, and dispatchAs exits
			p.w = nil
		}
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// SetObserver installs a trace to observe event dispatch (nil removes
// it). Observation is purely passive: it counts dispatched events and
// never schedules, so an observed run pops the identical event stream
// at identical virtual timestamps. Install before Run.
func (e *Engine) SetObserver(t *obs.Trace) {
	e.obsTrace = t
	if t == nil {
		e.obsEvents, e.obsResumes, e.obsHandoffs = nil, nil, nil
		return
	}
	e.obsEvents = t.Counter("vtime.events")
	e.obsResumes = t.Counter("vtime.resumes")
	e.obsHandoffs = t.Counter("vtime.handoffs")
}

// noteEvent counts one dispatched event against the observer: p is the
// process the event resumes (nil for a callback or handler) and self
// the process popping it (nil in Run). The disabled path is a single
// nil compare.
//
//lmovet:hotpath
func (e *Engine) noteEvent(p, self *Proc) {
	if e.obsEvents == nil {
		return
	}
	e.obsEvents.Add(1)
	if p == nil {
		return
	}
	e.obsResumes.Add(1)
	if p != self {
		e.obsHandoffs.Add(1)
	}
}

// Handler is a prepared event action. Objects implementing it can be
// scheduled with AtHandler without allocating a closure: the interface
// pair is stored inline in the typed event union, so a caller that
// pools its handler objects schedules events allocation-free.
type Handler interface{ Fire() }

// event is one queue entry: a tagged union of "resume process p" (p
// non-nil — the dominant case, carrying no closure), "call fn in
// engine context" (fn non-nil) and "fire prepared handler h".
type event struct {
	t   time.Duration
	seq uint64
	p   *Proc
	fn  func()
	h   Handler
}

// before orders events by (time, schedule sequence); the sequence
// tiebreak makes the order total, so any correct heap pops the exact
// same event stream — determinism does not depend on heap internals.
func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a slice-backed binary min-heap of typed events.
// Hand-rolled instead of container/heap so pushing and popping never
// box an event into an interface: a push is an append plus sift-up,
// allocation-free once the backing array has grown. Both sifts move a
// hole instead of swapping, writing each displaced event once.
type eventHeap struct {
	ev []event
}

// push appends and sifts up. Allocation-free once the backing array
// has grown (ev is a long-lived field, so append amortizes away).
//
//lmovet:hotpath
func (q *eventHeap) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q.ev[parent]) {
			break
		}
		q.ev[i] = q.ev[parent]
		i = parent
	}
	q.ev[i] = e
}

// pop removes the min event and sifts the last one down from the root,
// allocation-free.
//
//lmovet:hotpath
func (q *eventHeap) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // drop the fn/proc references
	q.ev = q.ev[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.ev[r].before(q.ev[c]) {
			c = r
		}
		if !q.ev[c].before(last) {
			break
		}
		q.ev[i] = q.ev[c]
		i = c
	}
	q.ev[i] = last
	return top
}

// reset empties the heap, dropping its references, and keeps its array.
func (q *eventHeap) reset() {
	clear(q.ev)
	q.ev = q.ev[:0]
}

// eventRing is a FIFO of events in a power-of-two ring buffer. It
// holds the events due at the current instant, which pop in the order
// they were queued.
type eventRing struct {
	buf  []event // len is zero or a power of two
	head int     // index of the oldest event
	n    int     // events held
}

// push appends an event, doubling the ring when it is full.
//
//lmovet:hotpath
func (r *eventRing) push(e event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = e
	r.n++
}

// pop removes and returns the oldest event.
//
//lmovet:hotpath
func (r *eventRing) pop() event {
	e := r.buf[r.head]
	r.buf[r.head] = event{} // drop the fn/proc references
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

// grow doubles the ring, keeping the events in order.
func (r *eventRing) grow() {
	buf := make([]event, max(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// reset empties the ring, dropping its references, and keeps its array.
func (r *eventRing) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// pending returns the number of queued events.
func (e *Engine) pending() int { return len(e.heap.ev) + e.fifo.n }

// push queues an event at its time, clamped to now, with the next
// sequence number. An event due now goes to the FIFO: its sequence
// exceeds every queued event's, so it comes after all of them in
// (time, sequence) order, and in particular after the heap's events at
// now, which were all queued before the clock reached now.
//
//lmovet:hotpath
func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	if ev.t <= e.now {
		ev.t = e.now
		e.fifo.push(ev)
		return
	}
	e.heap.push(ev)
}

// pop removes the earliest event in (time, sequence) order: the heap's
// head while it is due now (it was queued before every FIFO event),
// else the FIFO's oldest, else the heap's head. The queue must not be
// empty.
//
//lmovet:hotpath
func (e *Engine) pop() event {
	if e.fifo.n > 0 && (len(e.heap.ev) == 0 || e.heap.ev[0].t != e.now) {
		return e.fifo.pop()
	}
	return e.heap.pop()
}

// scheduleResume enqueues the resumption of p at absolute time t
// (clamped to now). This is the allocation-free fast path.
//
//lmovet:hotpath
func (e *Engine) scheduleResume(t time.Duration, p *Proc) { e.push(event{t: t, p: p}) }

// At schedules fn to run in engine context at absolute virtual time t
// (clamped to now). fn must not block.
func (e *Engine) At(t time.Duration, fn func()) { e.push(event{t: t, fn: fn}) }

// AtHandler schedules h.Fire() to run in engine context at absolute
// virtual time t (clamped to now), without allocating a closure. Fire
// must not block.
//
//lmovet:hotpath
func (e *Engine) AtHandler(t time.Duration, h Handler) { e.push(event{t: t, h: h}) }

// Proc is a simulated process: a body that runs in a coroutine, not a
// goroutine of its own. All Proc methods must be called from the
// process body, and a Proc is valid only while its body runs: once
// the engine is Reset, a later Go may hand the same struct to another
// process.
type Proc struct {
	e    *Engine
	name string
	body func(p *Proc)
	w    *worker // runs the body; nil before the first resume and after the end
	done bool

	// Embedded wait-queue nodes, reused across waits: a process blocks
	// on at most one Resource or Cond at a time, so queueing it never
	// allocates.
	resW  resWaiter
	condW condWaiter
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// procExit is the sentinel Proc.Exit panics with: it unwinds the
// process body (running its deferred functions) and terminates the
// process as if the body had returned, without failing the engine.
type procExit struct{}

// Exit terminates the calling process immediately, as if its body had
// returned. It is the mechanism behind simulated node crashes: the
// dead node's process unwinds cleanly while the rest of the simulation
// keeps running.
func (p *Proc) Exit() {
	panic(procExit{})
}

// Go starts a new process executing body. It may be called before Run
// or from a running process or event callback. The process begins at
// the current virtual time; it gets its coroutine when that first
// resume pops. After a Reset, Go hands out the structs of the previous
// simulation's finished processes before it allocates new ones.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	var p *Proc
	if e.started < len(e.procs) {
		p = e.procs[e.started]
	} else {
		p = new(Proc)
		e.procs = append(e.procs, p)
	}
	e.started++
	*p = Proc{e: e, name: name, body: body}
	e.scheduleResume(e.now, p)
	return p
}

// runBody runs the process body on its worker. A panic other than
// Exit's fails the run; either way the process ends here.
func (p *Proc) runBody() {
	defer func() {
		e := p.e
		if r := recover(); r != nil {
			if _, exited := r.(procExit); !exited && e.failErr == nil {
				// A panic value that is itself an error stays unwrappable
				// (errors.As), so typed failures — bad collective input, a
				// crashed peer — survive the trip through the engine.
				if err, ok := r.(error); ok {
					e.failErr = fmt.Errorf("vtime: process %q failed: %w", p.name, err)
				} else {
					e.failErr = fmt.Errorf("vtime: process %q panicked: %v", p.name, r)
				}
			}
		}
		p.done = true
	}()
	p.body(p)
}

// worker is a coroutine that runs process bodies one after another.
// Between bodies it sits on the idle list, suspended at the end of its
// loop; next resumes it and yield hands control back to Run.
type worker struct {
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
	p     *Proc // the process whose body the worker runs
}

// loop is the worker's coroutine. After each body it yields nil to Run,
// which hands it the next process or stops it.
func (w *worker) loop(yield func(*Proc) bool) {
	w.yield = yield
	for {
		w.p.runBody()
		if !yield(nil) {
			return // stopped: the idle list was full, or Close ended the body
		}
	}
}

// maxIdleWorkers bounds the idle list. It covers the 1 024 concurrent
// processes of a 1 024-host fat-tree estimation several times over, so
// simulations that run side by side in a campaign's workers reuse
// their workers too.
const maxIdleWorkers = 4096

// idleWorkers holds the workers of finished processes for later
// processes, of this simulation or another. Only Run takes and returns
// workers, never a process, and engines run on several goroutines at
// once, so a mutex guards the list. It is not a sync.Pool: a pool
// drops items without stopping them, and a dropped worker's goroutine
// would stay parked for good.
var idleWorkers struct {
	sync.Mutex
	ws []*worker
}

// takeWorker returns an idle worker, or a new one when none is idle.
func takeWorker() *worker {
	idleWorkers.Lock()
	if n := len(idleWorkers.ws); n > 0 {
		w := idleWorkers.ws[n-1]
		idleWorkers.ws[n-1] = nil
		idleWorkers.ws = idleWorkers.ws[:n-1]
		idleWorkers.Unlock()
		return w
	}
	idleWorkers.Unlock()
	w := new(worker)
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// releaseWorker puts the worker of a finished process on the idle
// list, or stops it, ending its goroutine, when the list is full.
func releaseWorker(w *worker) {
	w.p = nil
	idleWorkers.Lock()
	kept := len(idleWorkers.ws) < maxIdleWorkers
	if kept {
		idleWorkers.ws = append(idleWorkers.ws, w)
	}
	idleWorkers.Unlock()
	if !kept {
		w.stop()
	}
}

// broken reports whether the run has failed and dispatching must stop.
func (e *Engine) broken() bool { return e.failErr != nil || e.cbPanic != nil }

// callEvent runs a callback or handler event, capturing a panic so it
// can be re-raised from Run on the caller's stack (an event may execute
// in whichever process's coroutine is dispatching).
func (e *Engine) callEvent(ev event) {
	// The deferred recover closure is open-coded by the compiler and
	// captures only the receiver; it does not heap-allocate (pinned by
	// TestDisabledTracingZeroAlloc, which fires a handler
	// event per iteration).
	//lmovet:allow hotalloc
	defer func() {
		if r := recover(); r != nil {
			e.cbPanic = r
		}
	}()
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.Fire()
	}
}

// dispatchAs runs the event loop in self's coroutine until self's own
// resume event pops, the queue drains, or the run breaks. The calling
// process must either have a resume event queued (Sleep) or be
// registered with a Resource/Cond that will schedule one (blockSync).
//
// This is the kernel's hot path: when the popped event resumes the
// dispatching process itself, it simply returns — no coroutine switch,
// no allocation. Any other resume goes to Run, which switches to that
// process; self continues when a later pop resumes it.
//
//lmovet:hotpath
func (e *Engine) dispatchAs(self *Proc) {
	for {
		if e.broken() || e.pending() == 0 {
			// Drained or failed: hand control back to Run, parked until
			// a later Run pops our resume event, or until Close stops
			// the worker and yield reports false.
			if !self.w.yield(nil) {
				self.Exit()
			}
			return
		}
		ev := e.pop()
		e.now = ev.t
		e.noteEvent(ev.p, self)
		if ev.p == self {
			return // fast path: the dispatcher resumes itself
		}
		if ev.p != nil {
			if !self.w.yield(ev.p) { // Run switches to the woken process
				self.Exit()
			}
			return
		}
		e.callEvent(ev)
	}
}

// switchTo runs p until control comes back to Run. A process that pops
// another process's resume yields it, and switchTo switches to that one
// in turn; the chain ends when a process yields nil because its body
// ended, or because the run drained or broke while it was parked. A
// process's first resume always comes through here, so this is where
// it takes a worker, and where the worker goes back when the body ends.
func (e *Engine) switchTo(p *Proc) {
	for p != nil {
		w := p.w
		if w == nil {
			w = takeWorker()
			w.p, p.w = p, w
		}
		next, _ := w.next()
		if p.done {
			p.w = nil
			releaseWorker(w)
		}
		p = next
	}
}

// park suspends the calling process until something resumes it, running
// the engine's events in its coroutine meanwhile.
func (p *Proc) park() { p.e.dispatchAs(p) }

// Sleep advances the process's local time by d, modelling the process
// being busy (or idle) for that long. Other events proceed meanwhile.
//
//lmovet:hotpath
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.e
	e.scheduleResume(e.now+d, p)
	e.dispatchAs(p)
}

// Yield lets all other events scheduled at the current instant run
// before the process continues. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// blockSync parks the process with no pending event; a Resource or Cond
// holds it in a queue and is responsible for waking it later.
func (p *Proc) blockSync() {
	p.e.blockedSync++
	p.park()
}

// wakeSync schedules p to resume at the current virtual time. It is the
// counterpart of blockSync and may be called from engine context or
// from another process.
func (e *Engine) wakeSync(p *Proc) {
	e.blockedSync--
	e.scheduleResume(e.now, p)
}

// Park parks the calling process, with no pending event, until a
// WakeOrdered call names it and its instant comes.
func (p *Proc) Park() { p.blockSync() }

// WakeOrdered schedules the parked processes ps to resume at the instant
// at (the current one, if at is earlier) in list order, after the events
// already queued for that instant, and reports whether the engine was
// idle at the call: no event was queued, so every other process was
// parked or had ended. A caller that names itself resumes at its own
// place in the list: it calls Park next, and runs once the processes
// before it have. Nothing runs before the caller parks, so it may act on
// the release first. A woken process counts as blocked no longer, even
// while its instant is ahead. WakeOrdered allocates nothing.
func (p *Proc) WakeOrdered(ps []*Proc, at time.Duration) (idle bool) {
	e := p.e
	idle = e.pending() == 0
	for _, q := range ps {
		e.blockedSync--
		e.scheduleResume(at, q)
	}
	return idle
}

// DeadlockError is returned by Run when processes remain blocked on
// synchronization with no pending events.
type DeadlockError struct {
	Blocked int
	Time    time.Duration
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at %v: %d process(es) blocked with no pending events", d.Time, d.Blocked)
}

// Run processes events until none remain. It returns a *DeadlockError
// if processes remain blocked on a Resource or Cond when the event
// queue drains, or the error of the first process that failed.
// Processes run in coroutines that Run switches to; a process parked
// when the queue drains stays parked and resumes in a later Run.
func (e *Engine) Run() error {
	if e.running {
		return fmt.Errorf("vtime: engine already running")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		if e.cbPanic != nil {
			r := e.cbPanic
			e.cbPanic = nil
			panic(r)
		}
		if e.failErr != nil {
			return e.failErr
		}
		if e.pending() == 0 {
			break
		}
		ev := e.pop()
		e.now = ev.t
		e.noteEvent(ev.p, nil)
		if ev.p != nil {
			e.switchTo(ev.p)
			continue
		}
		e.callEvent(ev)
	}
	if e.blockedSync > 0 {
		return &DeadlockError{Blocked: e.blockedSync, Time: e.now}
	}
	return nil
}
