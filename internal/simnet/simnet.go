// Package simnet simulates a computational cluster built around a
// single switch, the paper's target platform. It substitutes for the
// physical 16-node Ethernet cluster of Table I.
//
// The simulator implements mechanisms, not model formulas:
//
//   - Sending a message holds the sender's CPU for C_src + M·t_src —
//     consecutive sends from one node serialize (this is what makes
//     the root's part of linear scatter sequential).
//   - The wire takes L_ij + M/β_ij; the switch forwards flows to
//     distinct destinations in parallel (transfers do not hold the
//     sender), so transmissions overlap, as eq (4)'s max expresses.
//     Transmissions on the same directed link serialize — the path has
//     finite bandwidth — which also preserves MPI's non-overtaking
//     guarantee between a pair of ranks.
//   - Receiving holds the receiver's CPU for C_dst + M·t_dst, so a
//     gather root processes incoming messages one after another.
//   - The TCP profile injects the observed irregularities: the
//     point-to-point leap past LeapAt bytes, escalations of concurrent
//     medium-size flows into one destination, and full ingress
//     serialization for messages larger than M2.
//
// Collective operation times therefore emerge from event interleaving
// and can genuinely diverge from any analytical model — which is the
// property the paper's evaluation depends on.
//
// The simulator reads only a payload's length, and it passes payloads
// by reference. A message may carry its payload as a list of buffers
// (SendParts): it travels as one message of their total size, so it
// costs, counts and orders exactly like a Send of that size, and the
// receiver gets the sender's buffers in Message.Parts.
//
// A receive gets the earliest-arrived pending message that matches its
// source and tag selectors, so messages from one sender with one tag,
// which cross their link in order, are received in the order they were
// sent. AnySource matches every sender. AnyTag matches every
// non-negative tag: a layer above keeps its own traffic from wildcard
// receives by giving it negative tags, which only a receive naming the
// tag gets. Each node's mailbox is indexed by tag, one arrival-ordered
// list per pending tag in a tag-sorted array, so a receive finds its
// message without scanning other tags' messages or shifting the queue.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/vtime"
)

// AnySource matches any sending node in Recv.
const AnySource = -1

// AnyTag matches any non-negative message tag in Recv.
// Negative tags are reserved for traffic a wildcard receive must not
// take: only a receive that names such a tag gets its messages.
const AnyTag = -1

// Message is a delivered network message. Its payload is Payload, or
// for a message sent with SendParts the buffers in Parts.
type Message struct {
	Src, Dst   int
	Tag        int
	Payload    []byte
	Parts      [][]byte      // the buffers of a SendParts, as the sender listed them
	SentAt     time.Duration // when the sender's CPU began processing it
	InjectedAt time.Duration // when it entered the wire
	ArrivedAt  time.Duration // when it reached the destination's mailbox
}

// Size returns the payload bytes the message carries: the length of
// Payload plus the lengths of its Parts.
func (m *Message) Size() int {
	size := len(m.Payload)
	for _, p := range m.Parts {
		size += len(p)
	}
	return size
}

// Counters accumulate traffic statistics for reports and tests.
type Counters struct {
	Messages    int
	Bytes       int64
	Escalations int
	Serialized  int // transfers that went through a serialized ingress port

	// Fault injection (all zero without a fault plan).
	Lost      int           // packets lost to injected link loss (each retransmitted)
	Stalled   time.Duration // total retransmission stall time added by loss
	BlackHole int           // messages dropped because the destination had crashed
	Crashed   int           // crash events fired

	// Fabric accounting (all zero on single-switch topologies).
	Hops         int // fabric links traversed across all messages
	FabricQueued int // hops that waited for a busy lane
}

// Network is the simulated switched cluster.
type Network struct {
	eng    *vtime.Engine
	cl     *cluster.Cluster
	prof   *cluster.TCPProfile
	rng    *rand.Rand // escalation randomness, seeded on the run's first draw
	seeded bool       // rng has been seeded with seed since the last Reset
	seed   int64
	draws  int       // draws from the escalation randomness since the last Reset
	ahead  []float64 // values a lookahead took from rng before the draws that use them, from head on
	head   int
	peak   float64 // the highest escalation probability a draw met since the last Mark

	cpus        []*vtime.Resource // one per node
	conds       []*vtime.Cond     // mailbox wakeups, one per node
	boxes       []mailbox         // pending messages per destination
	linkFree    [][]time.Duration // per directed link: when its transmission slot frees
	ingressFree []time.Duration   // per node: when its serialized ingress port frees
	inflight    [][]int           // inflight[dst][src]: concurrent wire transfers per flow
	inflightTot []int             // inflightTot[dst]: sum of inflight[dst][*], kept in step

	// Multi-switch fabric (nil on single-switch topologies, which keeps
	// the classic wire phase — and its goldens — byte-identical). The
	// lane free-times are sharded per directed fabric edge: booking a
	// hop touches only that edge's flat slice, no maps, no allocation.
	topo     *topo.Topology
	laneFree [][]time.Duration // laneFree[directedEdge][lane]: when the lane frees

	rdv         map[int]*vtime.Cond // per-(src,dst) rendezvous completion conds, created lazily
	free        []*envelope         // freelist of recycled message headers
	freeTransit []*inTransit        // freelist of recycled delivery handlers

	inj  *faults.Injector // nil-safe fault injection (nil = no faults)
	dead []bool           // per node: crash event has fired

	counters Counters
	obs      *obs.Trace // span observer; nil = disabled (the common case)
}

// New builds a network over the engine for the given cluster and TCP
// profile. The seed drives the escalation randomness; everything else
// is deterministic. It allocates the state of a network of the
// cluster's shape, then sets it up as Reset does.
func New(eng *vtime.Engine, cl *cluster.Cluster, prof *cluster.TCPProfile, seed int64) (*Network, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	n := cl.N()
	net := &Network{
		eng:         eng,
		topo:        fabricOf(cl),
		cpus:        make([]*vtime.Resource, n),
		conds:       make([]*vtime.Cond, n),
		boxes:       make([]mailbox, n),
		linkFree:    square[time.Duration](n),
		ingressFree: make([]time.Duration, n),
		inflight:    square[int](n),
		inflightTot: make([]int, n),
		dead:        make([]bool, n),
	}
	for i := 0; i < n; i++ {
		net.cpus[i] = vtime.NewResource(eng)
		net.conds[i] = vtime.NewCond(eng)
	}
	if tp := net.topo; tp != nil {
		net.laneFree = make([][]time.Duration, 2*tp.NumEdges())
		for de := range net.laneFree {
			net.laneFree[de] = make([]time.Duration, tp.EdgeSpec(int32(de)).Lanes)
		}
	}
	net.reset(cl, prof, seed)
	return net, nil
}

// square returns an n×n zero matrix whose rows share one backing array.
func square[T any](n int) [][]T {
	all := make([]T, n*n)
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// fabricOf returns the cluster's multi-switch fabric, or nil for a
// single switch.
func fabricOf(cl *cluster.Cluster) *topo.Topology {
	if tp := cl.Topo; tp != nil && tp.HasFabric() {
		return tp
	}
	return nil
}

// Reset sets the network up for a new simulation of cl under prof and
// seed, as New does: idle links, ports and lanes, no crashed node, no
// fault plan, no observer, zero counters, and escalation randomness
// from seed, with nothing drawn ahead and no probability met. Messages
// left undelivered in the mailboxes go back to the header freelist. cl
// must validate and have the node count and fabric the network was
// built for. The engine is not touched: reset it too for a new run. The network's CPU resources and mailbox conds are
// reused as they are, so Reset is for a network that was never run or
// whose last run ended with every process finished; after a failed
// run, build a new network.
func (n *Network) Reset(cl *cluster.Cluster, prof *cluster.TCPProfile, seed int64) error {
	if err := cl.Validate(); err != nil {
		return err
	}
	if cl.N() != len(n.cpus) || fabricOf(cl) != n.topo {
		return fmt.Errorf("simnet: reset to a cluster of another shape: the network simulates %d nodes on its fabric, the cluster has %d", len(n.cpus), cl.N())
	}
	n.reset(cl, prof, seed)
	return nil
}

// reset sets the network up for a simulation of a validated cluster of
// its shape.
func (n *Network) reset(cl *cluster.Cluster, prof *cluster.TCPProfile, seed int64) {
	if prof == nil {
		prof = cluster.Ideal()
	}
	n.cl, n.prof, n.seed, n.seeded, n.draws = cl, prof, seed, false, 0
	n.ahead, n.head, n.peak = n.ahead[:0], 0, 0
	for i := range n.boxes {
		n.drain(&n.boxes[i])
	}
	for _, row := range n.linkFree {
		clear(row)
	}
	for dst, tot := range n.inflightTot {
		if tot != 0 { // inflightTot[dst] sums the row, whose counts are non-negative
			clear(n.inflight[dst])
		}
	}
	clear(n.inflightTot)
	clear(n.ingressFree)
	for _, lanes := range n.laneFree {
		clear(lanes)
	}
	clear(n.dead)
	n.inj = nil
	n.counters = Counters{}
	n.obs = nil
}

// drain empties a mailbox, returning its messages' headers to the
// freelist. The box keeps its list array.
func (n *Network) drain(b *mailbox) {
	for _, l := range b.lists {
		for m := l.head; m != nil; {
			next := m.next
			n.putMessage(m)
			m = next
		}
	}
	clear(b.lists)
	*b = mailbox{lists: b.lists[:0]}
}

// generator returns the generator of the escalation randomness. It is
// seeded in place on a run's first use, so a run that draws nothing,
// such as any under the Ideal profile, never seeds it.
func (n *Network) generator() *rand.Rand {
	if !n.seeded {
		if n.rng == nil {
			n.rng = rand.New(rand.NewSource(n.seed))
		} else {
			n.rng.Seed(n.seed)
		}
		n.seeded = true
	}
	return n.rng
}

// draw returns the next number of the escalation randomness: the
// oldest value a lookahead took ahead, or else the generator's next.
func (n *Network) draw() float64 {
	if n.head == len(n.ahead) {
		n.draws++
		return n.generator().Float64()
	}
	v := n.ahead[n.head]
	n.consume(1)
	return v
}

// consume takes the next k values drawn ahead as k draws.
func (n *Network) consume(k int) {
	n.draws += k
	if n.head += k; n.head == len(n.ahead) {
		n.ahead, n.head = n.ahead[:0], 0
	}
}

// escalates draws the next number against escalation probability pr,
// which it notes as met (Peak), and reports whether the flow escalates.
func (n *Network) escalates(pr float64) bool {
	n.peak = max(n.peak, pr)
	return n.draw() < pr
}

// Draws returns the number of draws from the escalation randomness
// since the last Reset.
func (n *Network) Draws() int { return n.draws }

// Mark starts a new stretch for Peak.
func (n *Network) Mark() { n.peak = 0 }

// Peak returns the highest escalation probability that a draw met since
// the last Mark or Reset, 0 when nothing drew.
func (n *Network) Peak() float64 { return n.peak }

// Lookahead reports whether the next d numbers of the escalation
// randomness are all at or above p, taking them from the generator
// ahead of the draws that will use them as needed. If they are, it
// consumes them as d draws: those of a copy of a stretch that drew d
// times without escalating, each against a probability of at most p
// (Peak), which from the same state would draw them in the same order
// and escalate no more. Otherwise the draws that follow take them, so
// the stream every draw sees is the generator's, lookahead or not.
func (n *Network) Lookahead(d int, p float64) bool {
	for len(n.ahead)-n.head < d {
		n.ahead = append(n.ahead, n.generator().Float64())
	}
	for _, v := range n.ahead[n.head : n.head+d] {
		if v < p {
			return false
		}
	}
	n.consume(d)
	return true
}

// Settled reports whether the network holds nothing that can act on a
// later message: no fault plan, no crashed node and no delivered
// message waiting for its receive.
func (n *Network) Settled() bool {
	if n.inj != nil || n.counters.Crashed > 0 {
		return false
	}
	for i := range n.boxes {
		if n.boxes[i].pending > 0 {
			return false
		}
	}
	return true
}

// Counters returns a snapshot of the traffic counters.
func (n *Network) Counters() Counters { return n.counters }

// Repeat adds k copies of the traffic between two snapshots of the
// counters, from and the later to, as if the network had carried that
// traffic k more times.
func (n *Network) Repeat(from, to Counters, k int) {
	c := &n.counters
	c.Messages += k * (to.Messages - from.Messages)
	c.Bytes += int64(k) * (to.Bytes - from.Bytes)
	c.Escalations += k * (to.Escalations - from.Escalations)
	c.Serialized += k * (to.Serialized - from.Serialized)
	c.Lost += k * (to.Lost - from.Lost)
	c.Stalled += time.Duration(k) * (to.Stalled - from.Stalled)
	c.BlackHole += k * (to.BlackHole - from.BlackHole)
	c.Crashed += k * (to.Crashed - from.Crashed)
	c.Hops += k * (to.Hops - from.Hops)
	c.FabricQueued += k * (to.FabricQueued - from.FabricQueued)
}

// getMessage takes a message header from the freelist, falling back to
// the heap. Headers cycle sender → mailbox → receiver copy → freelist,
// so steady-state traffic allocates no message headers.
//
//lmovet:hotpath
func (n *Network) getMessage() *envelope {
	if k := len(n.free); k > 0 {
		m := n.free[k-1]
		n.free = n.free[:k-1]
		return m
	}
	return &envelope{}
}

// putMessage recycles a message header once its contents have been
// copied out (or the message was black-holed). The payload reference is
// dropped so the freelist does not pin user buffers.
//
//lmovet:hotpath
func (n *Network) putMessage(m *envelope) {
	*m = envelope{}
	n.free = append(n.free, m)
}

// inTransit is the delivery handler for one message on the wire. It
// implements vtime.Handler so arrival can be scheduled without
// allocating a closure, and it is pooled: non-rendezvous deliveries
// recycle it in Fire, rendezvous senders recycle it after their wait
// completes (or, if the sender timed out first, mark it abandoned and
// Fire recycles it).
type inTransit struct {
	net       *Network
	msg       *envelope
	delivered *vtime.Cond // non-nil for rendezvous sends
	arrived   bool        // set by Fire; polled by the rendezvous sender
	abandoned bool        // sender timed out; Fire owns the recycle
}

// Fire completes the wire phase: it books the arrival, delivers into
// the destination mailbox (or black-holes the message if the node
// crashed mid-flight) and wakes any rendezvous sender.
//
//lmovet:hotpath
func (d *inTransit) Fire() {
	n, msg := d.net, d.msg
	src, dst := msg.Src, msg.Dst
	n.inflight[dst][src]--
	n.inflightTot[dst]--
	if n.dead[dst] {
		// The destination crashed while the message was on the wire:
		// black-hole it.
		n.counters.BlackHole++
		if n.obs != nil {
			n.obs.EmitMsg(obs.CatMessage, "black-hole", dst, msg.InjectedAt, n.eng.Now(), src, dst, msg.Size())
		}
		n.putMessage(msg)
	} else {
		msg.ArrivedAt = n.eng.Now()
		n.boxes[dst].put(msg)
		n.conds[dst].Broadcast()
		if n.obs != nil {
			n.obs.EmitMsg(obs.CatMessage, "wire", dst, msg.InjectedAt, msg.ArrivedAt, src, dst, msg.Size())
		}
	}
	if d.delivered != nil {
		d.arrived = true
		d.delivered.Broadcast()
		if d.abandoned {
			n.putTransit(d)
		}
		return
	}
	n.putTransit(d)
}

// getTransit takes a delivery handler from the freelist, falling back
// to the heap.
//
//lmovet:hotpath
func (n *Network) getTransit() *inTransit {
	if k := len(n.freeTransit); k > 0 {
		d := n.freeTransit[k-1]
		n.freeTransit = n.freeTransit[:k-1]
		return d
	}
	return &inTransit{}
}

// putTransit recycles a delivery handler once both the engine event and
// any rendezvous waiter are done with it.
//
//lmovet:hotpath
func (n *Network) putTransit(d *inTransit) {
	*d = inTransit{}
	n.freeTransit = append(n.freeTransit, d)
}

// rendezvousCond returns the (src,dst) pair's rendezvous completion
// cond, creating it on first use. Rendezvous sends between one pair
// serialize (the sender blocks until delivery), so one reusable cond
// per pair replaces a fresh allocation per rendezvous send. The table
// is a map made on the first rendezvous: a job that sends none, the
// common case, pays nothing for it, where an n×n array cost 8 MB of
// pointers at 1 024 hosts.
func (n *Network) rendezvousCond(src, dst int) *vtime.Cond {
	if n.rdv == nil {
		n.rdv = make(map[int]*vtime.Cond)
	}
	idx := src*n.cl.N() + dst
	c := n.rdv[idx]
	if c == nil {
		c = vtime.NewCond(n.eng)
		n.rdv[idx] = c
	}
	return c
}

// SetFaults installs a fault plan. It must be called before any
// process starts communicating; crash events are scheduled on the
// engine immediately. The injector draws from its own RNG stream
// derived from the network seed, so installing a plan does not
// reshuffle the TCP escalation randomness of the underlying run. A
// nil or empty plan leaves the network fault-free.
func (n *Network) SetFaults(plan *faults.Plan) error {
	if plan.Empty() {
		n.inj = nil
		return nil
	}
	if err := plan.Validate(n.cl.N()); err != nil {
		return err
	}
	n.inj = faults.NewInjector(plan, n.seed, n.prof.BaseRTO())
	for _, node := range n.inj.Crashing() {
		node := node
		t, _ := n.inj.CrashTime(node)
		n.eng.At(t, func() {
			if n.dead[node] {
				return
			}
			n.dead[node] = true
			n.counters.Crashed++
			n.inj.NoteCrash()
			if n.obs != nil {
				n.obs.Point(obs.CatFault, "crash", node, n.eng.Now())
			}
			// Black-hole anything already queued for the dead node and
			// wake every waiter so blocked peers can re-examine their
			// state (and detect the crash).
			box := &n.boxes[node]
			n.counters.BlackHole += box.pending
			n.drain(box)
			// Broadcast in slice (node-index) order, which is already
			// deterministic. Order is additionally provably irrelevant:
			// Cond.Broadcast only moves each parked waiter onto the
			// engine's event queue via wakeSync, and the queue orders
			// resumptions by (virtual time, global schedule sequence) —
			// all of these fire at the same instant, so the woken
			// processes resume in their original park order regardless
			// of which cond was broadcast first. Guarded by
			// TestCrashBroadcastDeterministicWithRendezvousWaiters.
			// (n.conds was a map when this loop needed an
			// //lmovet:commutative waiver; it is a slice now, so the
			// directive would be stale and directiveaudit rejects it.)
			for _, c := range n.conds {
				c.Broadcast()
			}
		})
	}
	return nil
}

// FaultStats returns a snapshot of what the fault injector did.
// All-zero when no plan is installed.
func (n *Network) FaultStats() faults.Stats {
	return n.inj.Stats()
}

// CrashedNodes lists the nodes whose crash events have fired, in
// index order.
func (n *Network) CrashedNodes() []int {
	var out []int
	for i, d := range n.dead {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// checkSelf terminates the calling process if its own node has
// crashed: a dead node stops mid-operation the next time it touches
// the network.
func (n *Network) checkSelf(p *vtime.Proc, node int) {
	if n.dead[node] {
		p.Exit()
	}
}

// SenderCost returns the CPU time node src spends to send m bytes
// (C_src + m·t_src). Exposed for white-box tests and documentation.
func (n *Network) SenderCost(src, m int) time.Duration {
	nd := n.cl.Nodes[src]
	return nd.C + time.Duration(float64(m)*nd.T*float64(time.Second))
}

// ReceiverCost returns the CPU time node dst spends to receive m bytes.
func (n *Network) ReceiverCost(dst, m int) time.Duration {
	return n.SenderCost(dst, m) // same C + m·t form
}

// Send transmits payload from src to dst with the given tag. It must be
// called by the process running on node src. It returns when the
// sender's CPU is free again (eager semantics); the wire transfer and
// delivery proceed asynchronously. Sending to a node known to have
// crashed panics with a *CrashError (use SendDeadline for the
// error-returning form).
func (n *Network) Send(p *vtime.Proc, src, dst, tag int, payload []byte) {
	if err := n.send(p, src, dst, tag, payload, nil, 0); err != nil {
		panic(err)
	}
}

// SendParts is Send for a payload held in several buffers: the message
// travels as one message of their total size, with the cost, counters
// and spans of a Send of that size, and arrives with the same buffers
// in Message.Parts. Nothing is copied, so the sender must not write
// the buffers or the list after the call.
func (n *Network) SendParts(p *vtime.Proc, src, dst, tag int, parts [][]byte) {
	if err := n.send(p, src, dst, tag, nil, parts, 0); err != nil {
		panic(err)
	}
}

// SendDeadline is Send with fault awareness surfaced as errors rather
// than panics: it returns a *CrashError when dst is known dead, and —
// for rendezvous-protocol sends — a *TimeoutError when delivery has
// not completed by the virtual-time deadline (zero disables the
// deadline). Eager sends commit once the sender's CPU frees, so the
// deadline only bounds the rendezvous wait.
func (n *Network) SendDeadline(p *vtime.Proc, src, dst, tag int, payload []byte, deadline time.Duration) error {
	return n.send(p, src, dst, tag, payload, nil, deadline)
}

// send transmits a message whose payload is payload or, for SendParts,
// parts.
func (n *Network) send(p *vtime.Proc, src, dst, tag int, payload []byte, parts [][]byte, deadline time.Duration) error {
	if src == dst {
		panic("simnet: self-send not supported; local copies are modelled as free")
	}
	if dst < 0 || dst >= n.cl.N() {
		panic(fmt.Sprintf("simnet: bad destination %d", dst))
	}
	n.checkSelf(p, src)
	if n.dead[dst] {
		return &CrashError{Nodes: []int{dst}, Waiter: src, At: p.Now()}
	}
	msg := n.getMessage()
	msg.Message = Message{Src: src, Dst: dst, Tag: tag, Payload: payload, Parts: parts, SentAt: p.Now()}
	m := msg.Size()

	// 1. Sender CPU processing: serializes consecutive sends and
	// contends with receive processing on the same node. Straggler
	// nodes pay their CPU inflation here.
	n.cpus[src].Use(p, n.scaleCPU(src, n.SenderCost(src, m)))
	n.checkSelf(p, src) // the crash may have fired while the CPU was busy

	// 2. Wire phase: parallel through the switch, with TCP effects.
	now := p.Now()
	msg.InjectedAt = now
	link := n.cl.Links[src][dst]
	latX, rateX := n.inj.LinkFactors(src, dst, now)
	transfer := time.Duration(float64(m) / (link.Beta * rateX) * float64(time.Second))
	leap := n.prof.LeapExtra(m)
	lat := time.Duration(float64(link.L) * latX)

	// The transmission segment occupies the directed link i→j: messages
	// between the same pair serialize (and therefore never overtake),
	// while flows to distinct destinations pass the switch in parallel.
	seg := transfer + leap
	// Medium-size flows into a destination contended by OTHER senders
	// may escalate: an RTO-like stall that blocks the flow for its
	// duration. A single sender's pipelined messages share one
	// connection and do not collide with themselves — the escalations
	// are a many-to-one phenomenon (§III).
	escalated := false
	if !n.prof.SerializesIngress(m) && n.inflightTot[dst]-n.inflight[dst][src] > 0 {
		if pr := n.prof.EscalationProb(m); pr > 0 && n.escalates(pr) {
			seg += n.prof.PickEscalation(n.draw())
			n.counters.Escalations++
			escalated = true
		}
	}
	// Injected packet loss: each lost packet stalls the flow for an
	// RTO before retransmission, like the escalations but on any link.
	stall, lost := n.inj.TransferStall(src, dst)
	if lost > 0 {
		seg += stall
		n.counters.Lost += lost
		n.counters.Stalled += stall
	}
	start := now
	if n.linkFree[src][dst] > start {
		start = n.linkFree[src][dst]
	}
	if n.prof.SerializesIngress(m) {
		// Large flows additionally serialize on the destination's
		// ingress port across all senders.
		if n.ingressFree[dst] > start {
			start = n.ingressFree[dst]
			n.counters.Serialized++
		}
	}
	done := start + seg
	n.linkFree[src][dst] = done
	if n.prof.SerializesIngress(m) {
		n.ingressFree[dst] = done
	}
	if n.laneFree != nil {
		// 2b. Fabric phase: forward the message across the multi-switch
		// route before the final access latency. Absent on single-switch
		// topologies, where this branch must not perturb anything.
		done = n.forwardFabric(src, dst, m, done)
	}
	arrival := done + lat

	n.inflight[dst][src]++
	n.inflightTot[dst]++
	n.counters.Messages++
	n.counters.Bytes += int64(m)
	if n.obs != nil {
		// Send-CPU span: [SentAt, InjectedAt] on the sender's track. The
		// escalation and loss-stall incidents are pinned to the transfer
		// slot [start, done] the link booked for this message.
		n.obs.EmitMsg(obs.CatMessage, "send", src, msg.SentAt, now, src, dst, m)
		if escalated {
			n.obs.Point(obs.CatFault, "escalation", dst, start)
		}
		if lost > 0 {
			sp := n.obs.Emit(obs.CatFault, "rto-stall", dst, start, start+stall)
			n.obs.Annotate(sp, src, dst, lost)
		}
	}
	d := n.getTransit()
	d.net, d.msg = n, msg
	if n.prof.Rendezvous > 0 && m >= n.prof.Rendezvous {
		d.delivered = n.rendezvousCond(src, dst)
	}
	rendezvous := d.delivered
	n.eng.AtHandler(arrival, d)
	if rendezvous != nil {
		// Rendezvous protocol: the send call completes only once the
		// message has been delivered.
		if deadline > 0 {
			n.eng.At(deadline, rendezvous.Broadcast)
		}
		for !d.arrived {
			if deadline > 0 && p.Now() >= deadline {
				d.abandoned = true // the pending Fire recycles d
				return &TimeoutError{Op: "send", Rank: src, Peer: dst, Tag: tag, Deadline: deadline}
			}
			rendezvous.Wait(p)
		}
		n.putTransit(d)
		n.checkSelf(p, src)
		if n.dead[dst] {
			return &CrashError{Nodes: []int{dst}, Waiter: src, At: p.Now()}
		}
	}
	return nil
}

// forwardFabric walks the message store-and-forward across the fabric
// route from src's switch to dst's switch, starting when the access
// segment finishes at t. Each hop books the earliest-free lane of its
// directed edge for the transmission time only — propagation latency is
// added to the clock but does not occupy the lane — so an oversubscribed
// trunk (fewer lanes than feeder ports) queues exactly when more
// transfers overlap than it has lanes. Returns when the last hop's
// transmission completes plus latency, i.e. when the message reaches the
// destination switch; the caller adds the final access latency.
//
//lmovet:hotpath
func (n *Network) forwardFabric(src, dst, m int, t time.Duration) time.Duration {
	rt := n.topo.Route(src, dst)
	for _, de := range rt.Hops {
		spec := n.topo.EdgeSpec(de)
		lanes := n.laneFree[de]
		lane := 0
		for k := 1; k < len(lanes); k++ {
			if lanes[k] < lanes[lane] {
				lane = k
			}
		}
		start := t
		if lanes[lane] > start {
			start = lanes[lane]
			n.counters.FabricQueued++
		}
		done := start + time.Duration(float64(m)/spec.Beta*float64(time.Second))
		lanes[lane] = done
		t = done + spec.L
		n.counters.Hops++
	}
	return t
}

// scaleCPU applies the node's straggler CPU factor to a base cost.
func (n *Network) scaleCPU(node int, d time.Duration) time.Duration {
	if x := n.inj.CPUFactor(node); x != 1 {
		return time.Duration(float64(d) * x)
	}
	return d
}

// Recv blocks the process running on node dst until a message matching
// (src, tag) is available, charges the receiver's CPU processing time,
// and returns the message: the earliest-arrived match. src may be
// AnySource and tag may be AnyTag, which matches non-negative tags only.
// Receiving from a crashed peer with nothing left in flight panics
// with a *CrashError (use RecvDeadline for the error-returning form).
func (n *Network) Recv(p *vtime.Proc, dst, src, tag int) Message {
	msg, err := n.RecvDeadline(p, dst, src, tag, 0)
	if err != nil {
		panic(err)
	}
	return msg
}

// RecvDeadline is Recv with fault awareness surfaced as errors rather
// than panics. It returns a *CrashError when the awaited specific
// source has crashed and no matching message is pending or in flight,
// and a *TimeoutError when no match arrives by the virtual-time
// deadline (zero disables the deadline). Wildcard receives cannot
// attribute silence to a particular peer, so a crash blocking them is
// only detected at engine drain.
//
//lmovet:hotpath
func (n *Network) RecvDeadline(p *vtime.Proc, dst, src, tag int, deadline time.Duration) (Message, error) {
	timerArmed := false
	for {
		n.checkSelf(p, dst)
		if msg := n.boxes[dst].take(src, tag); msg != nil {
			out := msg.Message
			n.putMessage(msg)
			size := out.Size()
			n.cpus[dst].Use(p, n.scaleCPU(dst, n.ReceiverCost(dst, size)))
			n.checkSelf(p, dst)
			if n.obs != nil {
				n.obs.EmitMsg(obs.CatMessage, "recv", dst, out.ArrivedAt, p.Now(), out.Src, dst, size)
			}
			return out, nil
		}
		if src != AnySource && n.dead[src] && n.inflight[dst][src] == 0 {
			// The peer is dead and nothing from it is on the wire: the
			// awaited message can never arrive.
			return Message{}, &CrashError{Nodes: []int{src}, Waiter: dst, At: p.Now()}
		}
		if deadline > 0 {
			if p.Now() >= deadline {
				return Message{}, &TimeoutError{Op: "recv", Rank: dst, Peer: src, Tag: tag, Deadline: deadline}
			}
			if !timerArmed {
				timerArmed = true
				n.eng.At(deadline, n.conds[dst].Broadcast)
			}
		}
		n.conds[dst].Wait(p)
	}
}
