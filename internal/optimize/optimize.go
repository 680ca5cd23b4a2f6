// Package optimize implements the model-based optimizations the paper
// derives from accurate prediction: switching between linear and
// binomial collective algorithms at the right message size (Fig 6),
// splitting medium gather messages to dodge TCP escalations — the
// paper's 10× gather win (Fig 7) — and mapping heterogeneous
// processors onto binomial-tree positions.
package optimize

import (
	"repro/internal/collective"
	"repro/internal/models"
	"repro/internal/mpi"
)

// Crossover returns the smallest size in sizes at which the predicted
// order of linear and binomial scatter differs from their order at the
// first size, or -1 if the prediction never flips. It locates the
// algorithm-switching point a model implies.
func Crossover(p models.CollectivePredictor, root, n int, sizes []int) int {
	if len(sizes) == 0 {
		return -1
	}
	pick := func(m int) mpi.Alg {
		alg, _ := SelectAlgAmong(p, models.CollScatter, root, n, m, []mpi.Alg{mpi.Linear, mpi.Binomial})
		return alg
	}
	first := pick(sizes[0])
	for _, m := range sizes[1:] {
		if pick(m) != first {
			return m
		}
	}
	return -1
}

// GatherSegment returns the segment size an LMO-guided gather should
// split medium messages into: the largest size still safely below the
// irregular region (M1), or 0 when no splitting is warranted.
func GatherSegment(g models.GatherEmpirical) int {
	if !g.Valid() {
		return 0
	}
	return g.M1
}

// ShouldSplitGather reports whether an m-byte gather falls in the
// irregular region where splitting pays off.
func ShouldSplitGather(g models.GatherEmpirical, m int) bool {
	return g.Valid() && m > g.M1 && m < g.M2
}

// OptimizedGather performs the paper's model-based gather (Fig 7): if
// the block size falls into the empirical irregularity region, the
// message is split into segments of at most GatherSegment bytes and
// gathered in a series of linear gathers, each below M1 and therefore
// escalation-free; otherwise a single native linear gather runs. All
// ranks must call it collectively; the root gets the n reassembled
// blocks, others nil.
func OptimizedGather(r *mpi.Rank, root int, block []byte, g models.GatherEmpirical) [][]byte {
	m := len(block)
	if !ShouldSplitGather(g, m) {
		return r.Gather(mpi.Linear, root, block)
	}
	seg := GatherSegment(g)
	n := r.Size()
	pieces := (m + seg - 1) / seg
	var out [][]byte
	if r.Rank() == root {
		out = make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, 0, m)
		}
	}
	for p := 0; p < pieces; p++ {
		lo := p * seg
		hi := lo + seg
		if hi > m {
			hi = m
		}
		part := r.Gather(mpi.Linear, root, block[lo:hi])
		if r.Rank() == root {
			for i := range out {
				out[i] = append(out[i], part[i]...)
			}
		}
	}
	return out
}

// MapBinomialTree searches for a processor-to-tree-position mapping
// that minimizes the LMO-predicted binomial scatter time: fast
// processors should head large subtrees (they relay the most data).
// It seeds a greedy assignment — positions in decreasing subtree size
// get processors in increasing cost order — and improves it with
// pairwise-swap local search. root stays fixed at its position. The
// returned perm maps tree position → processor; perm[root] == root.
func MapBinomialTree(x *models.LMOX, root, n, m int) ([]int, float64) {
	tree := collective.Binomial(n, root)

	// Importance of a tree position: how many bytes it relays.
	relay := make([]int, n)
	for pos := 0; pos < n; pos++ {
		for _, c := range tree.Children[pos] {
			relay[pos] += tree.SubtreeSize[c]
		}
	}
	positions := make([]int, 0, n-1)
	for pos := 0; pos < n; pos++ {
		if pos != root {
			positions = append(positions, pos)
		}
	}
	sortBy(positions, func(a, b int) bool { return relay[a] > relay[b] })

	procs := make([]int, 0, n-1)
	for p := 0; p < n; p++ {
		if p != root {
			procs = append(procs, p)
		}
	}
	cost := func(p int) float64 { return x.SendCost(p, m) + x.RecvCost(p, m) }
	sortBy(procs, func(a, b int) bool { return cost(a) < cost(b) })

	perm := make([]int, n)
	perm[root] = root
	for i, pos := range positions {
		perm[pos] = procs[i]
	}

	eval := func(perm []int) float64 {
		return x.ScatterTree(applyMapping(tree, perm), m)
	}
	best := eval(perm)
	// Local search: first-improvement pairwise swaps, bounded passes.
	for pass := 0; pass < 4; pass++ {
		improved := false
		for a := 0; a < n; a++ {
			if a == root {
				continue
			}
			for b := a + 1; b < n; b++ {
				if b == root {
					continue
				}
				perm[a], perm[b] = perm[b], perm[a]
				if v := eval(perm); v < best-1e-15 {
					best = v
					improved = true
				} else {
					perm[a], perm[b] = perm[b], perm[a]
				}
			}
		}
		if !improved {
			break
		}
	}
	return perm, best
}

// applyMapping relabels tree positions with processors: position p of
// the template becomes processor perm[p]. Only the fields the
// predictors use (Root, Parent, Children, SubtreeSize) are meaningful
// on the result; relative block ranges are not preserved.
func applyMapping(tree *collective.Tree, perm []int) *collective.Tree {
	n := tree.N
	out := &collective.Tree{
		N:           n,
		Root:        perm[tree.Root],
		Parent:      make([]int, n),
		Children:    make([][]int, n),
		SubtreeSize: make([]int, n),
	}
	for pos := 0; pos < n; pos++ {
		p := perm[pos]
		out.SubtreeSize[p] = tree.SubtreeSize[pos]
		if tree.Parent[pos] == -1 {
			out.Parent[p] = -1
		} else {
			out.Parent[p] = perm[tree.Parent[pos]]
		}
		cs := make([]int, len(tree.Children[pos]))
		for i, c := range tree.Children[pos] {
			cs[i] = perm[c]
		}
		out.Children[p] = cs
	}
	return out
}

// sortBy is a tiny insertion sort with a less function, avoiding a
// sort.Slice dependency in a hot path of trivial size.
func sortBy(xs []int, less func(a, b int) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// OptimizedGatherv is OptimizedGather for variable block sizes: when
// any share falls inside the irregular region, the gather proceeds in
// rounds of at most GatherSegment bytes per rank, each round below M1
// and therefore escalation-free. All ranks must call it collectively
// with identical counts; the root gets the reassembled blocks, others
// nil.
func OptimizedGatherv(r *mpi.Rank, root int, block []byte, counts []int, g models.GatherEmpirical) [][]byte {
	needSplit := false
	maxCount := 0
	for _, c := range counts {
		if ShouldSplitGather(g, c) {
			needSplit = true
		}
		if c > maxCount {
			maxCount = c
		}
	}
	if !needSplit {
		return r.Gatherv(mpi.Linear, root, block, counts)
	}
	seg := GatherSegment(g)
	rounds := (maxCount + seg - 1) / seg
	n := r.Size()
	var out [][]byte
	if r.Rank() == root {
		out = make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, 0, counts[i])
		}
	}
	roundCounts := make([]int, n)
	for p := 0; p < rounds; p++ {
		lo := p * seg
		for i, c := range counts {
			hi := lo + seg
			if hi > c {
				hi = c
			}
			if lo > c {
				roundCounts[i] = 0
			} else {
				roundCounts[i] = hi - lo
			}
		}
		myLo, myHi := lo, lo+roundCounts[r.Rank()]
		if myLo > len(block) {
			myLo, myHi = len(block), len(block)
		}
		part := r.Gatherv(mpi.Linear, root, block[myLo:myHi], roundCounts)
		if r.Rank() == root {
			for i := range out {
				out[i] = append(out[i], part[i]...)
			}
		}
	}
	return out
}
