package mpi

import (
	"fmt"
	"slices"

	"repro/internal/collective"
	"repro/internal/obs"
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
	if root < 0 || root >= r.w.n {
		badInput(op, "root %d out of range [0, %d)", root, r.w.n)
	}
	return alg.Tree(r.w.n, root)
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
// algorithm and returns this rank's block. blocks is meaningful only at
// the root and must hold n equal-size blocks indexed by absolute rank.
// The root's own block is returned without network cost (the paper
// treats the root's local copy as negligible).
func (r *Rank) Scatter(alg Alg, root int, blocks [][]byte) []byte {
	defer r.endColl(r.beginColl("scatter", alg.String()))
	return r.scatterTree(r.tree("scatter", alg, root), blocks)
}

// ScatterTree distributes blocks over an explicit communication tree
// rooted at tree.Root — the algorithm-agnostic form behind Scatter,
// exported so tuners can run candidate tree shapes (k-ary degrees,
// optimized mappings) that no named algorithm produces. The tree must
// span exactly the job's ranks.
func (r *Rank) ScatterTree(tree *collective.Tree, blocks [][]byte) []byte {
	defer r.endColl(r.beginColl("scatter", "tree"))
	if tree.N != r.w.n {
		badInput("scatter", "tree spans %d ranks, job has %d", tree.N, r.w.n)
	}
	return r.scatterTree(tree, blocks)
}

func (r *Rank) scatterTree(tree *collective.Tree, blocks [][]byte) []byte {
	tag := r.collTag(opScatter)
	if r.rank == tree.Root {
		checkScatterBlocks("scatter", blocks, r.w.n)
	}
	return r.group().scatter("scatter", tag, tree, blocks, nil)
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
// rank; elsewhere it returns nil.
func (r *Rank) Gather(alg Alg, root int, block []byte) [][]byte {
	defer r.endColl(r.beginColl("gather", alg.String()))
	return r.gatherTree(r.tree("gather", alg, root), block)
}

// GatherTree collects equal-size blocks over an explicit communication
// tree rooted at tree.Root — the algorithm-agnostic form behind
// Gather, exported for the same tuner candidates as ScatterTree.
func (r *Rank) GatherTree(tree *collective.Tree, block []byte) [][]byte {
	defer r.endColl(r.beginColl("gather", "tree"))
	if tree.N != r.w.n {
		badInput("gather", "tree spans %d ranks, job has %d", tree.N, r.w.n)
	}
	return r.gatherTree(tree, block)
}

func (r *Rank) gatherTree(tree *collective.Tree, block []byte) [][]byte {
	return r.group().gather("gather", r.collTag(opGather), tree, block, nil)
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

// recv receives from group rank src (or AnySource) and reports the
// sender as a group rank.
func (g group) recv(src, tag int) ([]byte, Status) {
	if g.members == nil {
		return g.r.Recv(src, tag)
	}
	if src != AnySource {
		src = g.members[src]
	}
	data, st := g.r.Recv(src, tag)
	st.Source = slices.Index(g.members, st.Source)
	return data, st
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
// Scatterv's blocks (nil: equal blocks, sized from the batch a rank
// receives). Only the root copies, and only where a child's subtree
// merges several ranks' blocks (subtreeBatch). Every other rank sends
// its children slices of the batch it received and returns a view of
// its own block.
func (g group) scatter(op string, tag int, tree *collective.Tree, blocks [][]byte, counts []int) []byte {
	if g.me == tree.Root {
		for _, c := range tree.Children[g.me] {
			g.send(c, tag, subtreeBatch(blocks, tree, c))
		}
		return blocks[g.me]
	}
	payload, _ := g.recv(tree.Parent[g.me], tag)
	lo, hi := tree.RelRange(g.me)
	l := layout{tree: tree, counts: counts}
	if counts == nil {
		if len(payload)%(hi-lo) != 0 {
			panic(fmt.Sprintf("mpi: %s batch of %d bytes not divisible by subtree size %d", op, len(payload), hi-lo))
		}
		l.bs = len(payload) / (hi - lo)
	} else if want := l.size(lo, hi); len(payload) != want {
		badInput(op, "%s: batch of %d bytes, want %d", l.rule(), len(payload), want)
	}
	for _, c := range tree.Children[g.me] {
		clo, chi := tree.RelRange(c)
		start := l.size(lo, clo)
		g.send(c, tag, payload[start:start+l.size(clo, chi)])
	}
	own := l.size(lo, lo+1)
	return payload[:own:own]
}

// subtreeBatch returns what a scatter root sends child c: the block
// itself when c's subtree is one rank, else the subtree's blocks in
// relative order, merged into one buffer of their exact size.
func subtreeBatch(blocks [][]byte, tree *collective.Tree, c int) []byte {
	lo, hi := tree.RelRange(c)
	if hi-lo == 1 {
		return blocks[(lo+tree.Root)%tree.N]
	}
	size := 0
	for rel := lo; rel < hi; rel++ {
		size += len(blocks[(rel+tree.Root)%tree.N])
	}
	out := make([]byte, 0, size)
	for rel := lo; rel < hi; rel++ {
		out = append(out, blocks[(rel+tree.Root)%tree.N]...)
	}
	return out
}

// gather is the tree walk behind every gather; counts sizes a
// Gatherv's blocks (nil: every block has len(block) bytes). Only an
// interior rank copies: it merges its own block and its children's
// batches into one batch of their exact size. A rank without children
// sends its block itself, and the root returns views of the batches it
// receives and of its own block.
func (g group) gather(op string, tag int, tree *collective.Tree, block []byte, counts []int) [][]byte {
	l := layout{tree: tree, bs: len(block), counts: counts}
	lo, hi := tree.RelRange(g.me)
	var out [][]byte
	batch := block
	switch {
	case g.me == tree.Root:
		out = make([][]byte, tree.N)
		out[g.me] = block[:len(block):len(block)]
	case len(tree.Children[g.me]) > 0:
		batch = make([]byte, l.size(lo, hi))
		copy(batch, block)
	}
	for range tree.Children[g.me] {
		payload, st := g.recv(AnySource, tag)
		clo, chi := tree.RelRange(st.Source)
		if want := l.size(clo, chi); len(payload) != want {
			badInput(op, "%s: batch from rank %d has %d bytes, want %d", l.rule(), st.Source, len(payload), want)
		}
		if out == nil {
			copy(batch[l.size(lo, clo):], payload)
			continue
		}
		at := 0
		for rel := clo; rel < chi; rel++ {
			end := at + l.size(rel, rel+1)
			out[(rel+tree.Root)%tree.N] = payload[at:end:end]
			at = end
		}
	}
	if out == nil {
		g.send(tree.Parent[g.me], tag, batch)
	}
	return out
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
		data, _ = r.Recv(tree.Parent[r.rank], tag)
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
		payload, _ := r.Recv(AnySource, tag)
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
		r.Recv(from, tag)
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
		payload, _ := r.Recv(left, tag)
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
		payload, st := r.Recv(AnySource, tag)
		out[st.Source] = payload
	}
	return out
}
