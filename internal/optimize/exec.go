package optimize

import (
	"repro/internal/collective"
	"repro/internal/mpi"
)

// ExecScatter runs a scatter with a full candidate shape — algorithm
// family, k-ary tree degree, and segmentation — the execution
// counterpart of a models.Query. m is the per-rank block size, which
// every rank must know (blocks is meaningful only at the root). A
// segment in (0, m) splits the operation into ceil(m/segment)
// back-to-back scatters; each rank returns its reassembled block.
func ExecScatter(r *mpi.Rank, alg mpi.Alg, degree, segment, root, m int, blocks [][]byte) []byte {
	one := func(bs [][]byte) []byte {
		if degree >= 2 {
			return r.ScatterTree(collective.ShapeTree(alg, degree, r.Size(), root), bs)
		}
		return r.Scatter(alg, root, bs)
	}
	if segment <= 0 || segment >= m {
		return one(blocks)
	}
	out := make([]byte, 0, m)
	for lo := 0; lo < m; lo += segment {
		hi := lo + segment
		if hi > m {
			hi = m
		}
		var piece [][]byte
		if r.Rank() == root {
			piece = make([][]byte, len(blocks))
			for i, b := range blocks {
				piece[i] = b[lo:hi]
			}
		}
		out = append(out, one(piece)...)
	}
	return out
}

// ExecGather runs a gather with a full candidate shape — algorithm
// family, k-ary tree degree, and segmentation. A segment in (0, m)
// splits the operation into ceil(m/segment) back-to-back gathers. The
// root gets the n reassembled blocks, others nil.
func ExecGather(r *mpi.Rank, alg mpi.Alg, degree, segment, root int, block []byte) [][]byte {
	one := func(b []byte) [][]byte {
		if degree >= 2 {
			return r.GatherTree(collective.ShapeTree(alg, degree, r.Size(), root), b)
		}
		return r.Gather(alg, root, b)
	}
	m := len(block)
	if segment <= 0 || segment >= m {
		return one(block)
	}
	var out [][]byte
	if r.Rank() == root {
		out = make([][]byte, r.Size())
		for i := range out {
			out[i] = make([]byte, 0, m)
		}
	}
	for lo := 0; lo < m; lo += segment {
		hi := lo + segment
		if hi > m {
			hi = m
		}
		part := one(block[lo:hi])
		if r.Rank() == root {
			for i := range out {
				out[i] = append(out[i], part[i]...)
			}
		}
	}
	return out
}
