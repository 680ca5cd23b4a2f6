// Package mpi is an MPI-like SPMD message-passing layer over the
// simulated switched cluster. It plays the role LAM/MPICH play in the
// paper: ranks exchange tagged byte messages through point-to-point
// primitives, and the collective operations (scatter, gather,
// broadcast, reduce, barrier) are programmed on top of those
// primitives using flat and binomial communication trees — the very
// algorithms whose execution time the communication performance models
// predict.
//
// Payloads are lent, not copied. Do not write a buffer after passing it
// to Send or to a collective, and treat received payloads, scattered
// blocks and gathered entries as read-only: they may share memory with
// the sender's buffer or with each other. Nothing copies payload bytes
// except Reduce, whose op may write its accumulator. A scatter or
// gather batch of several blocks travels as one message whose parts
// are views of the blocks (simnet.Network.SendParts), and a segmented
// collective (ScatterShape, GatherShape) cuts its segments as views of
// each block and returns every rank's whole block as a view.
//
// Collectives run in a tag space of their own, apart from the user
// tags 0..MaxUserTag that Send, Recv and their Comm and Timeout forms
// accept. No user receive takes a collective's message, not even a
// wildcard one: AnyTag matches user tags only, just as MPI_ANY_TAG
// never matches a collective's traffic, which runs in its own context.
package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/vtime"
)

// AnySource matches any sender in Recv.
const AnySource = simnet.AnySource

// AnyTag matches any user tag in Recv.
const AnyTag = simnet.AnyTag

// Internal tag space for collectives: user tags must stay below this.
// Collectives send with the negated tag, which simnet's AnyTag does
// not match.
const collTagBase = 1 << 20

// MaxUserTag is the largest tag application code may use in Send/Recv.
const MaxUserTag = collTagBase - 1

// Config describes a simulated MPI job.
type Config struct {
	Cluster *cluster.Cluster    // the machine to run on
	Profile *cluster.TCPProfile // TCP irregularity profile (nil = ideal)
	Seed    int64               // randomness for the TCP layer
	Faults  *faults.Plan        // fault injection plan (nil = fault-free)
	Obs     *obs.Trace          // span/metric observer (nil = disabled)
}

// Result reports what a completed job did.
type Result struct {
	Duration time.Duration   // virtual time from start to last event
	Net      simnet.Counters // traffic statistics
	Faults   faults.Stats    // what the fault injector did (zero when fault-free)
}

// World is the shared state of one SPMD job. Jobs recycle worlds: Run
// takes an idle world of the job's shape, or builds one, and puts it
// back after a run that succeeded.
type World struct {
	net  *simnet.Network
	eng  *vtime.Engine
	cl   *cluster.Cluster // the job's machine
	n    int
	topo *topo.Topology // the cluster's topology: with n, the shape an idle world is taken by
	sync *vtime.Barrier
	seq  []int // per-rank collective sequence numbers (must stay in lockstep)

	cells   []*SharedCell      // harness-level shared cells by call sequence
	cellSeq []int              // per-rank SharedCell call counters
	comms   map[string]commSet // communicator registry: each member set's number and sequences

	obs *obs.Trace // span observer shared by all ranks (nil = disabled)

	body    func(r *Rank)       // the job's body
	ranks   []Rank              // the rank table: rank i's handle
	starts  []func(*vtime.Proc) // rank i's process body, bound once
	batches [][][]byte          // free gather batch lists
}

// Rank is the handle each SPMD process receives. All methods must be
// called from that process's body, which runs as a vtime coroutine. A
// Rank, like its Proc, is valid only during its run: the world's next
// job reuses it.
type Rank struct {
	w    *World
	p    *vtime.Proc
	rank int
}

// Run executes body on every rank of the cluster and returns traffic
// statistics. body runs once per rank, concurrently in virtual time.
// Each rank's *Rank, and the Proc behind it, is valid only until Run
// returns: a later job may reuse them.
//
// Failures surface as typed errors rather than hangs or raw panics:
// invalid collective input as *InputError, operations on crashed nodes
// as *CrashError (match with errors.As). When a fault plan crashed
// nodes and the job then stalled — ranks blocked on a peer they cannot
// identify, such as a wildcard receive — the engine's deadlock report
// is wrapped into a *CrashError naming the crashed nodes.
//
// The job runs on a world taken from a bounded list of idle worlds of
// its node count and topology, reset for the job, or on a new one.
// Only a world whose run returned nil goes back on the list; one whose
// setup or run failed is dropped, and the processes its run left
// parked end with it.
func Run(cfg Config, body func(r *Rank)) (Result, error) {
	if cfg.Cluster == nil {
		return Result{}, fmt.Errorf("mpi: nil cluster")
	}
	w, err := openWorld(cfg)
	if err != nil {
		return Result{}, err
	}
	w.body = body
	for i := range w.ranks {
		w.eng.Go(rankName(i), w.starts[i])
	}
	err = w.eng.Run()
	res := Result{Duration: w.eng.Now(), Net: w.net.Counters(), Faults: w.net.FaultStats()}
	if err != nil {
		var dl *vtime.DeadlockError
		if crashed := w.net.CrashedNodes(); len(crashed) > 0 && errors.As(err, &dl) {
			err = &CrashError{Nodes: crashed, Waiter: -1, At: w.eng.Now(), Cause: err}
		}
		// The world is dropped. End the processes its run left parked,
		// whose coroutines would otherwise stay parked for as long as
		// the program runs; the job's observer sees none of it.
		w.release()
		w.eng.Close()
		return res, err
	}
	closeWorld(w)
	return res, nil
}

// start is rank r's process body: it runs the job's body as r.
func (r *Rank) start(p *vtime.Proc) {
	r.p = p
	r.w.body(r)
}

// maxIdleRanks bounds the ranks of the idle worlds together: room for
// one 1 024-rank world and for the 16-rank worlds of a campaign's
// concurrent jobs.
const maxIdleRanks = 2048

// idleWorlds holds the worlds of finished jobs for later jobs of the
// same shape, the longest idle first. Jobs run on several goroutines at
// once, so a mutex guards the list; a world on it belongs to no job.
var idleWorlds struct {
	sync.Mutex
	ws    []*World
	ranks int // sum of the idle worlds' ranks
}

// openWorld returns a world set up for a job under cfg: an idle world
// of the cluster's node count and topology, or a new one. Either way
// the cluster is validated once: simnet.New validates and sets up a new
// network, and Network.Reset validates and resets a recycled one (the
// cluster may have been edited since the world's last job).
func openWorld(cfg Config) (*World, error) {
	cl := cfg.Cluster
	if w := takeWorld(cl.N(), cl.Topo); w != nil {
		if err := w.net.Reset(cl, cfg.Profile, cfg.Seed); err != nil {
			return nil, err
		}
		return w, w.setup(cfg)
	}
	eng := vtime.NewEngine()
	net, err := simnet.New(eng, cl, cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := newWorld(eng, net, cl.N(), cl.Topo)
	return w, w.setup(cfg)
}

// setup prepares the world for a job under cfg, the same way whether
// the world is new or recycled, once its network is set up for the
// job: it resets the engine, installs the fault plan and the observer,
// and restarts the ranks' sequences and shared cells.
func (w *World) setup(cfg Config) error {
	w.eng.Reset()
	if err := w.net.SetFaults(cfg.Faults); err != nil {
		return err
	}
	w.eng.SetObserver(cfg.Obs)
	w.net.SetObserver(cfg.Obs)
	w.cl, w.obs = cfg.Cluster, cfg.Obs
	clear(w.seq)
	clear(w.cellSeq)
	for _, c := range w.cells {
		c.V = nil
	}
	clear(w.comms)
	return nil
}

// newWorld builds the world of an n-rank job over eng and net.
func newWorld(eng *vtime.Engine, net *simnet.Network, n int, tp *topo.Topology) *World {
	w := &World{
		net: net, eng: eng, n: n, topo: tp,
		sync:    vtime.NewBarrier(eng, n),
		seq:     make([]int, n),
		cellSeq: make([]int, n),
		ranks:   make([]Rank, n),
		starts:  make([]func(*vtime.Proc), n),
	}
	for i := range w.ranks {
		w.ranks[i] = Rank{w: w, rank: i}
		w.starts[i] = w.ranks[i].start
	}
	return w
}

// rankNames is the table of process names rank0, rank1, ..., rendered
// once and read-only after, so jobs on several goroutines at once share
// it. It covers a 1 024-rank job.
var rankNames = sync.OnceValue(func() []string {
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("rank%d", i)
	}
	return names
})

// rankName returns the process name of rank i.
func rankName(i int) string {
	if names := rankNames(); i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("rank%d", i)
}

// takeWorld removes and returns the most recently idle world of n
// ranks over tp, or nil when there is none.
func takeWorld(n int, tp *topo.Topology) *World {
	idleWorlds.Lock()
	defer idleWorlds.Unlock()
	ws := idleWorlds.ws
	for i := len(ws) - 1; i >= 0; i-- {
		if w := ws[i]; w.n == n && w.topo == tp {
			idleWorlds.ws = slices.Delete(ws, i, i+1)
			idleWorlds.ranks -= n
			return w
		}
	}
	return nil
}

// release lets go of the job's body, cluster and observer.
func (w *World) release() {
	w.body, w.cl, w.obs = nil, nil, nil
	w.eng.SetObserver(nil)
	w.net.SetObserver(nil)
}

// closeWorld puts the world of a job that succeeded on the idle list.
// When the list has no room, the longest idle worlds go first: the
// shapes that stopped running age out. The world lets go of the job's
// body, cluster and observer before it goes on the list.
func closeWorld(w *World) {
	w.release()
	if w.n > maxIdleRanks {
		return
	}
	idleWorlds.Lock()
	defer idleWorlds.Unlock()
	drop := 0
	for idleWorlds.ranks+w.n > maxIdleRanks {
		idleWorlds.ranks -= idleWorlds.ws[drop].n
		drop++
	}
	idleWorlds.ws = append(slices.Delete(idleWorlds.ws, 0, drop), w)
	idleWorlds.ranks += w.n
}

// Rank returns this process's rank.
func (r *Rank) Rank() int { return r.rank }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.w.n }

// Now returns the current virtual time.
func (r *Rank) Now() time.Duration { return r.p.Now() }

// Sleep models local computation for d of virtual time.
func (r *Rank) Sleep(d time.Duration) { r.p.Sleep(d) }

// Proc exposes the underlying simulation process (for benchmarking
// layers that need engine access). Like the Rank, it is valid only
// inside the body, during its run.
func (r *Rank) Proc() *vtime.Proc { return r.p }

// Cluster returns the machine the job runs on, which the caller only
// reads: a measurement harness tells by it which experiments the
// simulator would run alike.
func (r *Rank) Cluster() *cluster.Cluster { return r.w.cl }

// Observer returns the span trace installed for this job via
// Config.Obs, or nil when observation is disabled. Layers above the
// ranks (measurement harnesses) use it to contribute their own spans
// to the same per-universe trace.
func (r *Rank) Observer() *obs.Trace { return r.w.obs }

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// Send transmits data to rank dst with a user tag (0..MaxUserTag). It
// returns when the local CPU is free again (eager semantics).
func (r *Rank) Send(dst, tag int, data []byte) {
	if tag < 0 || tag > MaxUserTag {
		badInput("send", "user tag %d out of range [0, %d]", tag, MaxUserTag)
	}
	r.send(dst, tag, data)
}

// Recv blocks until a message matching (src, tag) arrives and returns
// its payload. src may be AnySource, tag a user tag (0..MaxUserTag) or
// AnyTag, which matches user tags only.
func (r *Rank) Recv(src, tag int) ([]byte, Status) {
	if !recvTag(tag) {
		badInput("recv", "user tag %d out of range [0, %d]", tag, MaxUserTag)
	}
	return r.recv(src, tag)
}

// recv is Recv without the tag check, for collectives' own tags.
func (r *Rank) recv(src, tag int) ([]byte, Status) {
	return received(r.w.net.Recv(r.p, r.rank, src, tag))
}

// recvTag reports whether a user receive may name tag: AnyTag or a
// user tag.
func recvTag(tag int) bool { return tag == AnyTag || (tag >= 0 && tag <= MaxUserTag) }

// received returns a message's payload and status.
func received(msg simnet.Message) ([]byte, Status) {
	return msg.Payload, Status{Source: msg.Src, Tag: msg.Tag, Bytes: len(msg.Payload)}
}

// SendTimeout is the deadline-aware, error-returning Send: it reports
// a *CrashError when dst is known to have crashed and — for
// rendezvous-protocol sends — a *TimeoutError when delivery has not
// completed within timeout of virtual time (non-positive timeout
// means no deadline). Invalid input is reported as an *InputError
// instead of aborting the rank.
func (r *Rank) SendTimeout(dst, tag int, data []byte, timeout time.Duration) error {
	if tag < 0 || tag > MaxUserTag {
		return &InputError{Op: "send", Reason: fmt.Sprintf("user tag %d out of range [0, %d]", tag, MaxUserTag)}
	}
	var deadline time.Duration
	if timeout > 0 {
		deadline = r.p.Now() + timeout
	}
	return r.w.net.SendDeadline(r.p, r.rank, dst, tag, data, deadline)
}

// RecvTimeout is the deadline-aware, error-returning Recv: it reports
// a *CrashError when the awaited specific source has crashed with
// nothing left in flight, and a *TimeoutError when no match arrives
// within timeout of virtual time (non-positive timeout means no
// deadline). Like Recv, it matches user tags only; a tag outside them
// is reported as an *InputError.
func (r *Rank) RecvTimeout(src, tag int, timeout time.Duration) ([]byte, Status, error) {
	if !recvTag(tag) {
		return nil, Status{}, &InputError{Op: "recv", Reason: fmt.Sprintf("user tag %d out of range [0, %d]", tag, MaxUserTag)}
	}
	var deadline time.Duration
	if timeout > 0 {
		deadline = r.p.Now() + timeout
	}
	msg, err := r.w.net.RecvDeadline(r.p, r.rank, src, tag, deadline)
	if err != nil {
		return nil, Status{}, err
	}
	payload, st := received(msg)
	return payload, st, nil
}

// zeroPayload backs ZeroPayload. Nothing writes it: the simulator
// reads only a payload's length, and payloads are lent read-only.
var zeroPayload [256 << 10]byte

// ZeroPayload returns an m-byte read-only zero payload for Send or a
// collective: a view of one shared zero array, or a fresh buffer for
// sizes beyond its 256 KiB. Measurement harnesses send it instead of
// allocating payloads whose contents nobody reads.
func ZeroPayload(m int) []byte {
	if m <= len(zeroPayload) {
		return zeroPayload[:m:m]
	}
	return make([]byte, m)
}

// send is the internal untagged-range-checked variant used by
// collectives too.
func (r *Rank) send(dst, tag int, data []byte) {
	r.w.net.Send(r.p, r.rank, dst, tag, data)
}

// HardSync aligns all ranks at the same virtual instant at zero cost.
// It is measurement-harness machinery (isolating benchmark
// repetitions), not a model of MPI_Barrier — use Barrier for a costed
// one. It releases the ranks in the order they arrived.
func (r *Rank) HardSync() { r.w.sync.Wait(r.p) }

// SyncState is a job at the release of a HardSync, or of a harness's
// own barrier (ReleaseState), as a measurement harness reads it right at
// the release, before any released rank acts, to tell whether the
// stretch after a release would run as the stretch after an earlier
// one ran (Repeatable).
type SyncState struct {
	Syncs int             // HardSync releases so far: one more at each release
	Epoch int             // HardSync releases so far that left the ranks in another order than the release before: two releases of one epoch left them in one order
	Quiet bool            // nothing was pending: no event, no other parked process, no undelivered message, no fault plan, no crashed node
	Draws int             // draws from the escalation randomness so far
	Peak  float64         // the highest escalation probability a draw met since the last MarkDraws
	Cells int             // SharedCell calls so far, over all ranks
	Net   simnet.Counters // the traffic so far
}

// SyncState returns the job's state at its last HardSync's release.
func (r *Rank) SyncState() SyncState {
	syncs, epoch, quiet := r.w.sync.Released()
	s := r.w.state(quiet)
	s.Syncs, s.Epoch = syncs, epoch
	return s
}

// ReleaseState returns the job's state at a release of a harness that
// orders its own releases, read right before the harness wakes its
// parked ranks (vtime.Proc.WakeOrdered): Quiet as for a HardSync, with
// the caller running instead of parked. Syncs and Epoch stay zero:
// they describe HardSyncs.
func (r *Rank) ReleaseState() SyncState {
	return r.w.state(r.p.WakeOrdered(nil, 0)) // wakes nobody: reports whether the engine is idle
}

// state returns the job's state, Quiet when idle is and the network
// has settled.
func (w *World) state(idle bool) SyncState {
	s := SyncState{Quiet: idle && w.net.Settled(), Draws: w.net.Draws(), Peak: w.net.Peak(), Net: w.net.Counters()}
	for _, c := range w.cellSeq {
		s.Cells += c
	}
	return s
}

// MarkDraws starts the stretch over which SyncState.Peak notes the
// escalation probabilities that draws met.
func (r *Rank) MarkDraws() { r.w.net.Mark() }

// Lookahead reports whether the next d draws from the escalation
// randomness would all come out clean against any escalation
// probability up to p, and if so takes them: the draws of a skipped
// copy of a stretch that drew d times, each against a probability up
// to p (its Peak), and escalated nothing. Otherwise it leaves them for
// the draws that follow (simnet.Network.Lookahead).
func (r *Rank) Lookahead(d int, p float64) bool { return r.w.net.Lookahead(d, p) }

// Repeatable reports whether the stretch between two states, from and
// the later to, runs the same again when it starts from to: both were
// quiet, and nothing drew from the escalation randomness or called a
// SharedCell between them. It is the certificate of the estimation
// rounds, whose replayed records take no draws; mpib.Measure also
// copies stretches whose draws came out clean.
func Repeatable(from, to SyncState) bool {
	return from.Quiet && to.Quiet && to.Draws == from.Draws && to.Cells == from.Cells
}

// Collectives returns the number of collective calls this rank has
// made in the job: the sequence their internal tags come from.
func (r *Rank) Collectives() int { return r.w.seq[r.rank] }

// Skip advances this rank past k copies of a stretch that took d of
// virtual time and made calls collective calls, without running them:
// it sleeps k·d and moves its collective sequence on by k·calls. Every
// rank skips, in the order a HardSync released them (see mpib.Measure).
func (r *Rank) Skip(k int, d time.Duration, calls int) {
	r.SkipCollectives(k * calls)
	r.p.Sleep(time.Duration(k) * d)
}

// SkipCollectives moves this rank's collective sequence on by n calls
// without making them: the calls of skipped copies, for a rank that its
// harness woke at the copies' end.
func (r *Rank) SkipCollectives(n int) { r.w.seq[r.rank] += n }

// Repeat adds to the network's counters k copies of the traffic
// between two SyncStates, from and the later to: the skipped copies'
// traffic, added once for all ranks.
func (r *Rank) Repeat(from, to SyncState, k int) { r.w.net.Repeat(from.Net, to.Net, k) }

// collTag returns a fresh internal tag for the next collective call on
// this rank. SPMD lockstep keeps the per-rank sequence numbers aligned,
// so all ranks of one collective agree on the tag while distinct
// collective invocations never cross-match. The tag is negative, so no
// wildcard receive takes its messages.
func (r *Rank) collTag(op int) int {
	seq := r.w.seq[r.rank]
	r.w.seq[r.rank]++
	return -(collTagBase + seq*16 + op)
}

// Collective op codes folded into internal tags.
const (
	opScatter = iota
	opGather
	opBcast
	opReduce
	opBarrier
	opAllgather
	opAlltoall
)
