package collective

import "fmt"

// Chain builds the chain (pipeline) tree: relative rank k's child is
// k+1, so data flows 0→1→…→n-1 and the arc into relative rank k
// carries the n-k blocks of the remaining ranks. Pipelined algorithms
// (Pjesivac-Grbovic et al., which the paper compares against) use this
// topology; subtrees are contiguous relative ranges, so scatter can
// forward contiguous block slices.
func Chain(n, root int) *Tree {
	t := newTree(n, root)
	for rel := 0; rel+1 < n; rel++ {
		parent := relToAbs(rel, root, n)
		child := relToAbs(rel+1, root, n)
		t.Parent[child] = parent
		t.Children[parent] = []int{child}
	}
	t.computeSizes()
	return t
}

// KAry builds a balanced k-ary tree over contiguous relative ranges:
// the node heading [lo, hi) keeps lo and splits [lo+1, hi) into up to k
// contiguous chunks, each headed by its first rank. Subtrees therefore
// cover contiguous relative ranges (the property scatter's block
// forwarding relies on). KAry(n, root, 2) is the binary tree of the
// collective-algorithm literature.
func KAry(n, root, k int) *Tree {
	if k < 1 {
		panic(fmt.Sprintf("collective: k-ary tree needs k >= 1, got %d", k))
	}
	t := newTree(n, root)
	var build func(lo, hi int)
	build = func(lo, hi int) {
		head := relToAbs(lo, root, n)
		rest := hi - lo - 1
		if rest <= 0 {
			return
		}
		// Split [lo+1, hi) into k chunks as evenly as possible, larger
		// chunks first so children stay ordered by decreasing size.
		chunks := k
		if rest < chunks {
			chunks = rest
		}
		base := rest / chunks
		extra := rest % chunks
		at := lo + 1
		for c := 0; c < chunks; c++ {
			size := base
			if c < extra {
				size++
			}
			child := relToAbs(at, root, n)
			t.Parent[child] = head
			t.Children[head] = append(t.Children[head], child)
			build(at, at+size)
			at += size
		}
	}
	build(0, n)
	t.computeSizes()
	return t
}
