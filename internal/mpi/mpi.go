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
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/simnet"
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

// World is the shared state of one SPMD job.
type World struct {
	net  *simnet.Network
	eng  *vtime.Engine
	n    int
	sync *vtime.Barrier
	seq  []int // per-rank collective sequence numbers (must stay in lockstep)

	cells   map[int]*SharedCell // harness-level shared cells by call sequence
	cellSeq []int               // per-rank SharedCell call counters
	commSeq map[string][]int    // per-member-set, per-rank collective sequences for Comm

	obs *obs.Trace // span observer shared by all ranks (nil = disabled)
}

// Rank is the handle each SPMD process receives. All methods must be
// called from that process's body, which runs as a vtime coroutine.
type Rank struct {
	w    *World
	p    *vtime.Proc
	rank int
}

// Run executes body on every rank of the cluster and returns traffic
// statistics. body runs once per rank, concurrently in virtual time.
//
// Failures surface as typed errors rather than hangs or raw panics:
// invalid collective input as *InputError, operations on crashed nodes
// as *CrashError (match with errors.As). When a fault plan crashed
// nodes and the job then stalled — ranks blocked on a peer they cannot
// identify, such as a wildcard receive — the engine's deadlock report
// is wrapped into a *CrashError naming the crashed nodes.
func Run(cfg Config, body func(r *Rank)) (Result, error) {
	if cfg.Cluster == nil {
		return Result{}, fmt.Errorf("mpi: nil cluster")
	}
	eng := vtime.NewEngine()
	net, err := simnet.New(eng, cfg.Cluster, cfg.Profile, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	if err := net.SetFaults(cfg.Faults); err != nil {
		return Result{}, err
	}
	if cfg.Obs != nil {
		eng.SetObserver(cfg.Obs)
		net.SetObserver(cfg.Obs)
	}
	n := cfg.Cluster.N()
	w := &World{
		net: net, eng: eng, n: n, obs: cfg.Obs,
		sync:    vtime.NewBarrier(eng, n),
		seq:     make([]int, n),
		cells:   make(map[int]*SharedCell),
		cellSeq: make([]int, n),
	}
	for i := 0; i < n; i++ {
		i := i
		eng.Go(fmt.Sprintf("rank%d", i), func(p *vtime.Proc) {
			body(&Rank{w: w, p: p, rank: i})
		})
	}
	res := Result{Net: net.Counters()}
	if err := eng.Run(); err != nil {
		var dl *vtime.DeadlockError
		if crashed := net.CrashedNodes(); len(crashed) > 0 && errors.As(err, &dl) {
			err = &CrashError{Nodes: crashed, Waiter: -1, At: eng.Now(), Cause: err}
		}
		res.Duration = eng.Now()
		res.Net = net.Counters()
		res.Faults = net.FaultStats()
		return res, err
	}
	return Result{Duration: eng.Now(), Net: net.Counters(), Faults: net.FaultStats()}, nil
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
// layers that need engine access).
func (r *Rank) Proc() *vtime.Proc { return r.p }

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
// one.
func (r *Rank) HardSync() { r.w.sync.Wait(r.p) }

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
