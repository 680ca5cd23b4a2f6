// Package collective provides the communication-tree machinery for
// collective operations: flat (linear) trees and the binomial trees of
// the paper's Fig 2, including per-arc block counts, subtree sizes and
// processor-to-node mappings.
package collective

import (
	"fmt"
	"strings"
)

// Tree is a rooted communication tree over ranks 0..N-1. Children are
// ordered by decreasing subtree size, which for binomial trees means
// the largest message travels first, as the paper describes ("the
// largest messages 2^k·M are sent/received first").
type Tree struct {
	N    int
	Root int
	// Parent[r] is the parent of rank r, or -1 for the root.
	Parent []int
	// Children[r] lists r's children in decreasing subtree-size order.
	Children [][]int
	// SubtreeSize[r] is the number of ranks in the subtree rooted at r
	// (including r). For scatter/gather it equals the number of data
	// blocks carried over the arc Parent[r] → r.
	SubtreeSize []int
}

// relToAbs converts a root-relative rank to an absolute rank.
func relToAbs(rel, root, n int) int { return (rel + root) % n }

// absToRel converts an absolute rank to a root-relative rank.
func absToRel(abs, root, n int) int { return (abs - root + n) % n }

// Binomial builds the binomial communication tree for n ranks rooted at
// root, the construction used by MPICH/LAM for scatter, gather and
// broadcast. For n = 16 and root 0 it reproduces the paper's Fig 2:
// the root's children head subtrees of 8, 4, 2 and 1 nodes, and each
// arc carries as many blocks as its subtree holds ranks. Non-powers of
// two are supported: subtrees are truncated.
func Binomial(n, root int) *Tree {
	t := newTree(n, root)
	if n == 1 {
		t.computeSizes()
		return t
	}
	for rel := 0; rel < n; rel++ {
		abs := relToAbs(rel, root, n)
		// Find the parent: clear the lowest set bit region per the
		// standard construction — walk masks upward until a set bit.
		mask := 1
		for mask < n {
			if rel&mask != 0 {
				parentRel := rel - mask
				t.Parent[abs] = relToAbs(parentRel, root, n)
				break
			}
			mask <<= 1
		}
		// Children: rel+mask' for decreasing masks below the parent bit.
		// For the root (rel 0), mask has run past n, so halve it first.
		childMask := mask >> 1
		for childMask > 0 {
			childRel := rel + childMask
			if childRel < n {
				t.Children[abs] = append(t.Children[abs], relToAbs(childRel, root, n))
			}
			childMask >>= 1
		}
	}
	t.computeSizes()
	return t
}

// Flat builds the flat (linear) tree: the root is the parent of every
// other rank, children in increasing rank order (skipping the root).
func Flat(n, root int) *Tree {
	t := newTree(n, root)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		t.Parent[r] = root
		t.Children[root] = append(t.Children[root], r)
	}
	t.computeSizes()
	return t
}

func newTree(n, root int) *Tree {
	if n <= 0 {
		panic("collective: tree needs at least one rank")
	}
	if root < 0 || root >= n {
		panic(fmt.Sprintf("collective: root %d out of range [0,%d)", root, n))
	}
	t := &Tree{
		N:           n,
		Root:        root,
		Parent:      make([]int, n),
		Children:    make([][]int, n),
		SubtreeSize: make([]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	return t
}

// computeSizes fills SubtreeSize bottom-up and orders children by
// decreasing subtree size (stable, so equal sizes keep construction
// order).
func (t *Tree) computeSizes() {
	var size func(r int) int
	size = func(r int) int {
		s := 1
		for _, c := range t.Children[r] {
			s += size(c)
		}
		t.SubtreeSize[r] = s
		return s
	}
	size(t.Root)
	for r := range t.Children {
		cs := t.Children[r]
		// Insertion sort by decreasing size; lists are tiny (≤ log n).
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && t.SubtreeSize[cs[j]] > t.SubtreeSize[cs[j-1]]; j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
	}
}

// Blocks returns the number of data blocks carried over the arc into
// rank r during a scatter or gather — the arc labels of Fig 2. The
// root has no incoming arc and yields 0.
func (t *Tree) Blocks(r int) int {
	if r == t.Root {
		return 0
	}
	return t.SubtreeSize[r]
}

// Depth returns the number of arcs on the path from the root to r.
func (t *Tree) Depth(r int) int {
	d := 0
	for r != t.Root {
		r = t.Parent[r]
		d++
	}
	return d
}

// SubtreeRanks returns the ranks of the subtree rooted at r, in
// preorder.
func (t *Tree) SubtreeRanks(r int) []int {
	out := []int{r}
	for _, c := range t.Children[r] {
		out = append(out, t.SubtreeRanks(c)...)
	}
	return out
}

// RelRange returns the root-relative rank interval [lo, hi) covered by
// the subtree rooted at r. For binomial trees the subtree covers a
// contiguous relative range, which is what lets scatter forward a
// contiguous slice of blocks; Flat trees trivially cover [rel, rel+1).
func (t *Tree) RelRange(r int) (lo, hi int) {
	rel := absToRel(r, t.Root, t.N)
	return rel, rel + t.SubtreeSize[r]
}

// Validate checks the structural invariants: every non-root has a
// parent, parent/child links agree, sizes are consistent and all ranks
// are reachable from the root exactly once.
func (t *Tree) Validate() error {
	if t.SubtreeSize[t.Root] != t.N {
		return fmt.Errorf("collective: root subtree covers %d of %d ranks", t.SubtreeSize[t.Root], t.N)
	}
	seen := make([]bool, t.N)
	for _, r := range t.SubtreeRanks(t.Root) {
		if seen[r] {
			return fmt.Errorf("collective: rank %d reached twice", r)
		}
		seen[r] = true
	}
	for r := 0; r < t.N; r++ {
		if !seen[r] {
			return fmt.Errorf("collective: rank %d unreachable", r)
		}
		if r == t.Root {
			if t.Parent[r] != -1 {
				return fmt.Errorf("collective: root has a parent")
			}
			continue
		}
		p := t.Parent[r]
		if p < 0 || p >= t.N {
			return fmt.Errorf("collective: rank %d has bad parent %d", r, p)
		}
		found := false
		for _, c := range t.Children[p] {
			if c == r {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("collective: rank %d missing from parent %d's children", r, p)
		}
	}
	return nil
}

// String renders the tree with arc block counts, e.g. for Fig 2 output.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(r, depth int)
	walk = func(r, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if r == t.Root {
			fmt.Fprintf(&b, "%d (root)\n", r)
		} else {
			fmt.Fprintf(&b, "%d [%d block(s)]\n", r, t.Blocks(r))
		}
		for _, c := range t.Children[r] {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}
