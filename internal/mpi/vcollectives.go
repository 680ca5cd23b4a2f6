package mpi

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
	return view(r.group().scatter("scatterv", tag, tree, blocks, counts))
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
	return views(r.group().gather("gatherv", tag, tree, block, counts, nil))
}
