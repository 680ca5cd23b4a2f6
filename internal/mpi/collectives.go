package mpi

import (
	"fmt"

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
	root := tree.Root
	n := r.w.n
	if n == 1 {
		return blocks[root]
	}

	if r.rank == root {
		bs := -1
		if len(blocks) != n {
			badInput("scatter", "root has %d blocks, want %d", len(blocks), n)
		}
		for _, b := range blocks {
			if bs == -1 {
				bs = len(b)
			} else if len(b) != bs {
				badInput("scatter", "blocks must have equal size (got %d and %d bytes)", bs, len(b))
			}
		}
		for _, c := range tree.Children[root] {
			r.send(c, tag, concatRel(blocks, tree, c))
		}
		return blocks[root]
	}

	payload, _ := r.Recv(tree.Parent[r.rank], tag)
	size := tree.SubtreeSize[r.rank]
	if size == 0 || len(payload)%size != 0 {
		panic(fmt.Sprintf("mpi: scatter batch of %d bytes not divisible by subtree size %d", len(payload), size))
	}
	bs := len(payload) / size
	lo, _ := tree.RelRange(r.rank)
	for _, c := range tree.Children[r.rank] {
		clo, chi := tree.RelRange(c)
		r.send(c, tag, payload[(clo-lo)*bs:(chi-lo)*bs])
	}
	return payload[:bs]
}

// concatRel concatenates the blocks covered by child c's subtree in
// relative-rank order.
func concatRel(blocks [][]byte, tree *collective.Tree, c int) []byte {
	lo, hi := tree.RelRange(c)
	var out []byte
	for rel := lo; rel < hi; rel++ {
		out = append(out, blocks[(rel+tree.Root)%tree.N]...)
	}
	return out
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
	tag := r.collTag(opGather)
	root := tree.Root
	n := r.w.n
	if n == 1 {
		return [][]byte{append([]byte(nil), block...)}
	}
	bs := len(block)

	// Assemble this subtree's batch in relative order, starting with
	// our own block, then fill in children subtree batches as they come.
	lo, hi := tree.RelRange(r.rank)
	batch := make([]byte, (hi-lo)*bs)
	copy(batch, block)
	for range tree.Children[r.rank] {
		payload, st := r.Recv(AnySource, tag)
		clo, chi := tree.RelRange(st.Source)
		if len(payload) != (chi-clo)*bs {
			panic(fmt.Sprintf("mpi: gather batch from %d has %d bytes, want %d", st.Source, len(payload), (chi-clo)*bs))
		}
		copy(batch[(clo-lo)*bs:(chi-lo)*bs], payload)
	}

	if r.rank == root {
		out := make([][]byte, n)
		for rel := 0; rel < n; rel++ {
			abs := (rel + root) % n
			out[abs] = batch[rel*bs : (rel+1)*bs : (rel+1)*bs]
		}
		return out
	}
	r.send(tree.Parent[r.rank], tag, batch)
	return nil
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
// combined block at the root, nil elsewhere.
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
// algorithm and returns n blocks indexed by absolute rank.
func (r *Rank) Allgather(block []byte) [][]byte {
	defer r.endColl(r.beginColl("allgather", "ring"))
	tag := r.collTag(opAllgather)
	n := r.w.n
	out := make([][]byte, n)
	out[r.rank] = append([]byte(nil), block...)
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
// for this rank. send[rank] is copied locally.
func (r *Rank) Alltoall(send [][]byte) [][]byte {
	defer r.endColl(r.beginColl("alltoall", "linear"))
	tag := r.collTag(opAlltoall)
	n := r.w.n
	if len(send) != n {
		badInput("alltoall", "needs %d blocks, got %d", n, len(send))
	}
	out := make([][]byte, n)
	out[r.rank] = append([]byte(nil), send[r.rank]...)
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
