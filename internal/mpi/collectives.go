package mpi

import (
	"slices"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// Alg selects a collective algorithm. It is an alias of
// collective.Alg — the type moved next to the tree constructors so the
// model layer can key predictions by algorithm without importing the
// simulator — and keeps its traditional constant names here.
type Alg = collective.Alg

// Collective algorithms implemented by this package.
const (
	Linear   = collective.AlgLinear   // flat tree: the root talks to everyone directly
	Binomial = collective.AlgBinomial // binomial tree, as in Fig 2
	Binary   = collective.AlgBinary   // balanced binary tree over contiguous ranges
	Chain    = collective.AlgChain    // chain (pipeline) tree
)

// Algorithms lists every collective algorithm.
func Algorithms() []Alg { return collective.Algorithms() }

// tree returns the shared communication tree of a collective over the
// whole job, rejecting a root outside the job as invalid input.
func (r *Rank) tree(op string, alg Alg, root int) *collective.Tree {
	tree, _ := r.shape(op, alg, 0, root)
	return tree
}

// shape returns the tree of a candidate shape over the whole job — the
// degree-ary tree when degree >= 2, else alg's own tree — and the
// algorithm name its collective spans carry: alg's, or "tree" for a
// k-ary tree. A root outside the job is rejected as invalid input
// before any tree is built.
func (r *Rank) shape(op string, alg Alg, degree, root int) (*collective.Tree, string) {
	if root < 0 || root >= r.w.n {
		badInput(op, "root %d out of range [0, %d)", root, r.w.n)
	}
	name := alg.String()
	if degree >= 2 {
		name = "tree"
	}
	return collective.ShapeTree(alg, degree, r.w.n, root), name
}

// beginColl opens a per-rank collective-phase span named "op:alg" on
// this rank's track; every message span the network emits for this
// rank while the collective runs nests underneath it. The name is only
// assembled when observation is on, so the disabled path stays free.
func (r *Rank) beginColl(op, alg string) obs.SpanID {
	if r.w.obs == nil {
		return 0
	}
	return r.w.obs.Begin(obs.CatCollective, op+":"+alg, r.rank, r.p.Now())
}

// endColl closes a span opened by beginColl at the rank's current
// virtual time; a zero id (observation disabled) is a no-op.
func (r *Rank) endColl(id obs.SpanID) {
	if id != 0 {
		r.w.obs.End(id, r.p.Now())
	}
}

// Scatter distributes blocks from root to every rank using the given
// algorithm and returns this rank's block as a view of the root's.
// blocks is meaningful only at the root and must hold n equal-size
// blocks indexed by absolute rank. The root's own block is returned
// without network cost (the paper treats the root's local copy as
// negligible).
func (r *Rank) Scatter(alg Alg, root int, blocks [][]byte) []byte {
	tree, name := r.shape("scatter", alg, 0, root)
	if r.rank == root {
		checkScatterBlocks("scatter", blocks, r.w.n)
	}
	return view(r.scatterOnce(tree, name, blocks))
}

// ScatterShape scatters m-byte blocks from root over a candidate shape:
// the degree-ary tree when degree >= 2, else alg's own tree. A segment
// in (0, m) splits it into ceil(m/segment) back-to-back scatters, each
// with its own tag and span. Every rank must pass the same m; blocks
// is meaningful only at the root, which must hold one block of exactly
// m bytes per rank. Each segment is a view cut from the root's blocks,
// so every rank returns its whole block as a view.
func (r *Rank) ScatterShape(alg Alg, degree, segment, root, m int, blocks [][]byte) []byte {
	tree, name := r.shape("scatter", alg, degree, root)
	if r.rank == root {
		checkScatterBlocks("scatter", blocks, r.w.n)
		if len(blocks[0]) != m {
			badInput("scatter", "root blocks have %d bytes, want %d", len(blocks[0]), m)
		}
	}
	if segment <= 0 || segment >= m {
		own := r.scatterOnce(tree, name, blocks)
		if len(own) != m {
			badInput("scatter", "block of %d bytes, want %d", len(own), m)
		}
		return view(own)
	}
	// The scatter walk never keeps the list it is given, so one list of
	// segment views serves every segment.
	var piece [][]byte
	if r.rank == root {
		piece = make([][]byte, len(blocks))
	}
	var first []byte
	for lo := 0; lo < m; lo += segment {
		hi := min(lo+segment, m)
		for i := range piece {
			piece[i] = blocks[i][lo:hi]
		}
		own := r.scatterOnce(tree, name, piece)
		if len(own) != hi-lo {
			badInput("scatter", "segment of %d bytes, want %d", len(own), hi-lo)
		}
		if lo == 0 {
			first = own
		}
	}
	// The segments were cut back to back from one block of the root's,
	// and each had the size this rank expects, so the first one,
	// extended to m bytes, is this rank's whole block.
	return first[:m:m]
}

// scatterOnce runs one scatter over tree in its own collective span
// and returns this rank's block uncut.
func (r *Rank) scatterOnce(tree *collective.Tree, name string, blocks [][]byte) []byte {
	defer r.endColl(r.beginColl("scatter", name))
	return r.group().scatter("scatter", r.collTag(opScatter), tree, blocks, nil)
}

// checkScatterBlocks rejects a scatter root's blocks unless there is
// one per rank and all have the same size.
func checkScatterBlocks(op string, blocks [][]byte, n int) {
	if len(blocks) != n {
		badInput(op, "root has %d blocks, want %d", len(blocks), n)
	}
	for _, b := range blocks {
		if len(b) != len(blocks[0]) {
			badInput(op, "blocks must have equal size (got %d and %d bytes)", len(blocks[0]), len(b))
		}
	}
}

// Gather collects equal-size blocks from every rank at root using the
// given algorithm. At the root it returns n blocks indexed by absolute
// rank, each a view of its rank's block; elsewhere it returns nil.
func (r *Rank) Gather(alg Alg, root int, block []byte) [][]byte {
	return r.GatherShape(alg, 0, 0, root, block)
}

// GatherShape gathers equal-size blocks at root over a candidate shape:
// the degree-ary tree when degree >= 2, else alg's own tree. A segment
// in (0, len(block)) splits it into ceil(len(block)/segment)
// back-to-back gathers, each with its own tag and span. Each segment is
// a view cut from the rank's block, so the root returns every rank's
// whole block as a view, n blocks indexed by absolute rank; elsewhere
// it returns nil.
func (r *Rank) GatherShape(alg Alg, degree, segment, root int, block []byte) [][]byte {
	tree, name := r.shape("gather", alg, degree, root)
	m := len(block)
	if segment <= 0 || segment >= m {
		return views(r.gatherOnce(tree, name, block, nil))
	}
	// The root keeps the first segment's list; the later segments share
	// one list, which each of them overwrites.
	var out, rest [][]byte
	for lo := 0; lo < m; lo += segment {
		part := r.gatherOnce(tree, name, block[lo:min(lo+segment, m)], rest)
		if lo == 0 {
			out = part
		} else {
			rest = part
		}
	}
	// Every segment passed the walk's size check, so every rank's block
	// holds m bytes, and its first segment extended to m bytes is the
	// whole block.
	for i, b := range out {
		out[i] = b[:m:m]
	}
	return out
}

// gatherOnce runs one gather over tree in its own collective span; the
// root gets the blocks uncut, in out when out is non-nil.
func (r *Rank) gatherOnce(tree *collective.Tree, name string, block []byte, out [][]byte) [][]byte {
	defer r.endColl(r.beginColl("gather", name))
	return r.group().gather("gather", r.collTag(opGather), tree, block, nil, out)
}

// view returns b with its capacity cut to its length, so that an
// append to a lent block cannot write past it.
func view(b []byte) []byte { return b[:len(b):len(b)] }

// views cuts every entry of a gather result to its length.
func views(out [][]byte) [][]byte {
	for i, b := range out {
		out[i] = view(b)
	}
	return out
}

// group is the rank space a scatter or gather walks its tree in: the
// whole job, or a communicator's members (group rank i is world rank
// members[i]).
type group struct {
	r       *Rank
	members []int // nil for the whole job
	me      int   // the calling process's group rank
}

// group returns the whole job as a collective's rank space.
func (r *Rank) group() group { return group{r: r, me: r.rank} }

// send transmits data to group rank dst.
func (g group) send(dst, tag int, data []byte) {
	if g.members != nil {
		dst = g.members[dst]
	}
	g.r.send(dst, tag, data)
}

// sendParts transmits a batch held in several buffers to group rank
// dst as one message of their total size.
func (g group) sendParts(dst, tag int, parts [][]byte) {
	if g.members != nil {
		dst = g.members[dst]
	}
	g.r.w.net.SendParts(g.r.p, g.r.rank, dst, tag, parts)
}

// recv receives from group rank src (or AnySource) and reports the
// sender as a group rank.
func (g group) recv(src, tag int) ([]byte, Status) {
	return received(g.recvMsg(src, tag))
}

// recvMsg receives the message behind recv, its Src a group rank.
func (g group) recvMsg(src, tag int) simnet.Message {
	if g.members != nil && src != AnySource {
		src = g.members[src]
	}
	msg := g.r.w.net.Recv(g.r.p, g.r.rank, src, tag)
	if g.members != nil {
		msg.Src = slices.Index(g.members, msg.Src)
	}
	return msg
}

// blockOf returns block i of a received batch. A batch of one block
// travels as a plain payload, a batch of several as parts, one block
// each.
func blockOf(msg simnet.Message, i int) []byte {
	if msg.Parts == nil {
		return msg.Payload
	}
	return msg.Parts[i]
}

// blocksIn returns how many blocks a received batch holds.
func blocksIn(msg simnet.Message) int {
	if msg.Parts == nil {
		return 1
	}
	return len(msg.Parts)
}

// layout sizes the blocks of one scatter or gather: bs bytes each, or
// counts[i] bytes for group rank i (Scatterv, Gatherv).
type layout struct {
	tree   *collective.Tree
	bs     int
	counts []int
}

// size returns the bytes of the blocks of relative ranks [lo, hi).
func (l layout) size(lo, hi int) int {
	if l.counts == nil {
		return (hi - lo) * l.bs
	}
	s := 0
	for rel := lo; rel < hi; rel++ {
		s += l.counts[(rel+l.tree.Root)%l.tree.N]
	}
	return s
}

// rule names the input rule a batch of the wrong size breaks.
func (l layout) rule() string {
	if l.counts == nil {
		return "blocks must have equal size"
	}
	return "counts must be identical on every rank"
}

// scatter is the tree walk behind every scatter; counts sizes a
// Scatterv's blocks (nil: equal blocks). It moves no payload bytes: a
// batch is a list of block views, sent as one message. The root sends
// a child whose subtree is one rank that rank's block, and a larger
// subtree its blocks in relative order, listed in a fresh header slice
// (never blocks, which the caller may reuse once the call returns).
// Every other rank forwards its children sublists of the list it
// received and returns its own block. Blocks come back uncut: the
// public wrappers cut them to their length.
func (g group) scatter(op string, tag int, tree *collective.Tree, blocks [][]byte, counts []int) []byte {
	if g.me == tree.Root {
		var rel [][]byte // blocks by relative rank, listed on first need
		for _, c := range tree.Children[g.me] {
			lo, hi := tree.RelRange(c)
			if hi-lo == 1 {
				g.send(c, tag, blocks[(lo+tree.Root)%tree.N])
				continue
			}
			if rel == nil {
				rel = make([][]byte, tree.N)
				for i := range rel {
					rel[i] = blocks[(i+tree.Root)%tree.N]
				}
			}
			g.sendParts(c, tag, rel[lo:hi])
		}
		return blocks[g.me]
	}
	msg := g.recvMsg(tree.Parent[g.me], tag)
	lo, hi := tree.RelRange(g.me)
	if k := blocksIn(msg); k != hi-lo {
		badInput(op, "batch of %d blocks, want one per rank of a %d-rank subtree", k, hi-lo)
	}
	if counts != nil {
		l := layout{tree: tree, counts: counts}
		if want := l.size(lo, hi); msg.Size() != want {
			badInput(op, "%s: batch of %d bytes, want %d", l.rule(), msg.Size(), want)
		}
	}
	for _, c := range tree.Children[g.me] {
		clo, chi := tree.RelRange(c)
		if chi-clo == 1 {
			g.send(c, tag, blockOf(msg, clo-lo))
		} else {
			g.sendParts(c, tag, msg.Parts[clo-lo:chi-lo])
		}
	}
	return blockOf(msg, 0)
}

// gather is the tree walk behind every gather; counts sizes a
// Gatherv's blocks (nil: every block has len(block) bytes). It moves
// no payload bytes: a rank without children sends its block itself,
// an interior rank sends its own block and its children's in relative
// order as one list of views, and the root returns the blocks it
// receives and its own, uncut (the public wrappers cut them), in out
// when out is non-nil and in a fresh list otherwise. An interior rank
// takes its list from the world's free list, and its parent hands it
// back once it has copied the views out.
func (g group) gather(op string, tag int, tree *collective.Tree, block []byte, counts []int, out [][]byte) [][]byte {
	kids := tree.Children[g.me]
	if g.me != tree.Root && len(kids) == 0 {
		g.send(tree.Parent[g.me], tag, block)
		return nil
	}
	l := layout{tree: tree, bs: len(block), counts: counts}
	lo, hi := tree.RelRange(g.me)
	// The root lists the blocks by absolute rank, an interior rank its
	// subtree's by relative rank from lo.
	var batch [][]byte
	if g.me == tree.Root {
		if out == nil {
			out = make([][]byte, tree.N)
		}
		out[g.me] = block
	} else {
		batch = g.r.w.batch(hi - lo)
		batch[0] = block
	}
	for range kids {
		msg := g.recvMsg(AnySource, tag)
		clo, chi := tree.RelRange(msg.Src)
		if want := l.size(clo, chi); msg.Size() != want {
			badInput(op, "%s: batch from rank %d has %d bytes, want %d", l.rule(), msg.Src, msg.Size(), want)
		}
		if k := blocksIn(msg); k != chi-clo {
			badInput(op, "batch from rank %d has %d blocks, want %d", msg.Src, k, chi-clo)
		}
		for rel := clo; rel < chi; rel++ {
			if out != nil {
				out[(rel+tree.Root)%tree.N] = blockOf(msg, rel-clo)
			} else {
				batch[rel-lo] = blockOf(msg, rel-clo)
			}
		}
		if msg.Parts != nil {
			g.r.w.freeBatch(msg.Parts) // the child's list, its views copied out
		}
	}
	if out == nil {
		g.sendParts(tree.Parent[g.me], tag, batch)
	}
	return out
}

// batch returns a gather batch list of k entries, from the free list
// when a list there has room for k.
func (w *World) batch(k int) [][]byte {
	for i := len(w.batches) - 1; i >= 0; i-- {
		if b := w.batches[i]; cap(b) >= k {
			last := len(w.batches) - 1
			w.batches[i] = w.batches[last]
			w.batches[last] = nil
			w.batches = w.batches[:last]
			return b[:k]
		}
	}
	return make([][]byte, k)
}

// freeBatch puts a received gather batch list on the free list; its
// views are dropped so the list pins no blocks.
func (w *World) freeBatch(b [][]byte) {
	clear(b)
	w.batches = append(w.batches, b)
}

// Bcast sends data from root to every rank over a binomial tree and
// returns the data on every rank. data is meaningful only at the root.
func (r *Rank) Bcast(root int, data []byte) []byte {
	defer r.endColl(r.beginColl("bcast", "binomial"))
	tag := r.collTag(opBcast)
	tree := r.tree("bcast", Binomial, root)
	if r.w.n == 1 {
		return data
	}
	if r.rank != root {
		data, _ = r.recv(tree.Parent[r.rank], tag)
	}
	for _, c := range tree.Children[r.rank] {
		r.send(c, tag, data)
	}
	return data
}

// Reduce combines every rank's block at the root over a binomial tree
// using op (which must be associative and commutative) and returns the
// combined block at the root, nil elsewhere. op may write its first
// argument: Reduce hands it a copy of block, never block itself.
func (r *Rank) Reduce(root int, block []byte, op func(a, b []byte) []byte) []byte {
	defer r.endColl(r.beginColl("reduce", "binomial"))
	tag := r.collTag(opReduce)
	tree := r.tree("reduce", Binomial, root)
	if r.w.n == 1 {
		return append([]byte(nil), block...)
	}
	acc := append([]byte(nil), block...)
	for range tree.Children[r.rank] {
		payload, _ := r.recv(AnySource, tag)
		acc = op(acc, payload)
	}
	if r.rank == root {
		return acc
	}
	r.send(tree.Parent[r.rank], tag, acc)
	return nil
}

// Barrier synchronizes all ranks with the dissemination algorithm; it
// has real network cost, unlike HardSync.
func (r *Rank) Barrier() {
	defer r.endColl(r.beginColl("barrier", "dissemination"))
	tag := r.collTag(opBarrier)
	n := r.w.n
	if n == 1 {
		return
	}
	for k := 1; k < n; k <<= 1 {
		to := (r.rank + k) % n
		from := (r.rank - k + n) % n
		r.send(to, tag, nil)
		r.recv(from, tag)
	}
}

// Allgather distributes every rank's block to every rank with the ring
// algorithm and returns n blocks indexed by absolute rank; entry rank
// is a view of block.
func (r *Rank) Allgather(block []byte) [][]byte {
	defer r.endColl(r.beginColl("allgather", "ring"))
	tag := r.collTag(opAllgather)
	n := r.w.n
	out := make([][]byte, n)
	out[r.rank] = block[:len(block):len(block)]
	if n == 1 {
		return out
	}
	right := (r.rank + 1) % n
	left := (r.rank - 1 + n) % n
	have := r.rank // index of the block we forward next
	for s := 0; s < n-1; s++ {
		r.send(right, tag, out[have])
		payload, _ := r.recv(left, tag)
		have = (have - 1 + n) % n
		out[have] = payload
	}
	return out
}

// Alltoall exchanges personalized blocks between all ranks linearly:
// send[i] goes to rank i, and the result's entry j holds rank j's block
// for this rank. Entry rank is a view of send[rank].
func (r *Rank) Alltoall(send [][]byte) [][]byte {
	defer r.endColl(r.beginColl("alltoall", "linear"))
	tag := r.collTag(opAlltoall)
	n := r.w.n
	if len(send) != n {
		badInput("alltoall", "needs %d blocks, got %d", n, len(send))
	}
	out := make([][]byte, n)
	out[r.rank] = send[r.rank][:len(send[r.rank]):len(send[r.rank])]
	for i := 1; i < n; i++ {
		dst := (r.rank + i) % n
		r.send(dst, tag, send[dst])
	}
	for i := 1; i < n; i++ {
		payload, st := r.recv(AnySource, tag)
		out[st.Source] = payload
	}
	return out
}
