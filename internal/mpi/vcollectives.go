package mpi

import (
	"fmt"

	"repro/internal/collective"
)

// Scatterv distributes variable-size blocks from root: counts[i] is the
// byte count destined for rank i and must be identical on every rank
// (as in MPI_Scatterv); blocks is meaningful only at the root, where
// len(blocks[i]) must equal counts[i]. It returns this rank's block.
//
// Variable block sizes are the vehicle for heterogeneous data
// distribution: giving each processor work proportional to its speed,
// the optimization the paper's introduction motivates.
func (r *Rank) Scatterv(alg Alg, root int, blocks [][]byte, counts []int) []byte {
	tag := r.collTag(opScatter)
	tree := r.tree("scatterv", alg, root)
	n := r.w.n
	if len(counts) != n {
		badInput("scatterv", "needs %d counts, got %d", n, len(counts))
	}
	if r.rank == root {
		if len(blocks) != n {
			badInput("scatterv", "root has %d blocks, want %d", len(blocks), n)
		}
		for i, b := range blocks {
			if len(b) != counts[i] {
				badInput("scatterv", "block %d has %d bytes, counts say %d", i, len(b), counts[i])
			}
		}
	}
	if n == 1 {
		return blocks[root]
	}

	if r.rank == root {
		for _, c := range tree.Children[root] {
			r.send(c, tag, concatRelV(blocks, tree, c))
		}
		return blocks[root]
	}

	payload, _ := r.Recv(tree.Parent[r.rank], tag)
	lo, hi := tree.RelRange(r.rank)
	if want := sumCountsRel(counts, tree, lo, hi); len(payload) != want {
		panic(fmt.Sprintf("mpi: scatterv batch of %d bytes, want %d", len(payload), want))
	}
	// Own block is the first counts[rank] bytes; forward each child its
	// contiguous sub-batch.
	own := counts[r.rank]
	for _, c := range tree.Children[r.rank] {
		clo, chi := tree.RelRange(c)
		start := sumCountsRel(counts, tree, lo, clo)
		end := start + sumCountsRel(counts, tree, clo, chi)
		r.send(c, tag, payload[start:end])
	}
	return payload[:own]
}

// Gatherv collects variable-size blocks at root: every rank contributes
// its block (len(block) must equal counts[rank]); counts must be
// identical on every rank. At the root it returns n blocks indexed by
// absolute rank, nil elsewhere.
func (r *Rank) Gatherv(alg Alg, root int, block []byte, counts []int) [][]byte {
	tag := r.collTag(opGather)
	tree := r.tree("gatherv", alg, root)
	n := r.w.n
	if len(counts) != n {
		badInput("gatherv", "needs %d counts, got %d", n, len(counts))
	}
	if len(block) != counts[r.rank] {
		badInput("gatherv", "rank %d block has %d bytes, counts say %d", r.rank, len(block), counts[r.rank])
	}
	if n == 1 {
		return [][]byte{append([]byte(nil), block...)}
	}

	lo, hi := tree.RelRange(r.rank)
	batch := make([]byte, sumCountsRel(counts, tree, lo, hi))
	copy(batch, block)
	for range tree.Children[r.rank] {
		payload, st := r.Recv(AnySource, tag)
		clo, chi := tree.RelRange(st.Source)
		start := sumCountsRel(counts, tree, lo, clo)
		end := start + sumCountsRel(counts, tree, clo, chi)
		if len(payload) != end-start {
			panic(fmt.Sprintf("mpi: gatherv batch from %d has %d bytes, want %d", st.Source, len(payload), end-start))
		}
		copy(batch[start:end], payload)
	}

	if r.rank == root {
		out := make([][]byte, n)
		at := 0
		for rel := 0; rel < n; rel++ {
			abs := (rel + root) % n
			out[abs] = batch[at : at+counts[abs] : at+counts[abs]]
			at += counts[abs]
		}
		return out
	}
	r.send(tree.Parent[r.rank], tag, batch)
	return nil
}

// concatRelV concatenates the variable-size blocks of child c's
// subtree in relative order.
func concatRelV(blocks [][]byte, tree *collective.Tree, c int) []byte {
	lo, hi := tree.RelRange(c)
	var out []byte
	for rel := lo; rel < hi; rel++ {
		out = append(out, blocks[(rel+tree.Root)%tree.N]...)
	}
	return out
}

// sumCountsRel sums counts over the relative-rank interval [lo, hi).
func sumCountsRel(counts []int, tree *collective.Tree, lo, hi int) int {
	s := 0
	for rel := lo; rel < hi; rel++ {
		s += counts[(rel+tree.Root)%tree.N]
	}
	return s
}
