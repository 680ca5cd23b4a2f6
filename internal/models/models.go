// Package models implements the communication performance models the
// paper compares: Hockney (homogeneous and heterogeneous), LogP, LogGP,
// PLogP, and the LMO model in both its original five-parameter form and
// the paper's six-parameter extension that fully separates the constant
// and variable contributions of processors and network.
//
// All times are in seconds and message sizes in bytes. Each model
// predicts point-to-point communication and collectives through one
// interface, CollectivePredictor.Predict(Query); the closed forms of
// the paper's evaluation — linear (flat-tree) and binomial scatter and
// gather, per Table II and equations (1)–(5) — remain methods of the
// models, and the tree-capable models add recursions over arbitrary
// communication trees.
package models

import (
	"math"

	"repro/internal/collective"
)

// log2Ceil returns ⌈log₂ n⌉ as a float (0 for n ≤ 1), the number of
// rounds of a binomial tree over n ranks.
func log2Ceil(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// scatterBytes is the per-arc payload of a scatter/gather: the arc
// into child c carries its subtree's blocks.
func scatterBytes(tree *collective.Tree, m int) func(c int) int {
	return func(c int) int { return tree.SubtreeSize[c] * m }
}

// bcastBytes is the per-arc payload of a broadcast/reduce: every arc
// carries the full message.
func bcastBytes(m int) func(c int) int {
	return func(int) int { return m }
}

// treeRecursive evaluates the paper's eq (1) over a communication
// tree: the root sends the largest sub-block first, then the
// independent subtrees proceed in parallel —
//
//	T(k) = p2p(r, s, bytes(s)) + max( T_rest, T_subtree(s) )
//
// generalized to any tree shape and any pairwise point-to-point cost
// function; bytes gives the payload on the arc into each child.
func treeRecursive(tree *collective.Tree, bytes func(c int) int, p2p func(src, dst, bytes int) float64) float64 {
	var down func(r int, cs []int) float64
	down = func(r int, cs []int) float64 {
		if len(cs) == 0 {
			return 0
		}
		c := cs[0]
		b := bytes(c)
		rest := down(r, cs[1:])
		sub := down(c, tree.Children[c])
		return p2p(r, c, b) + math.Max(rest, sub)
	}
	return down(tree.Root, tree.Children[tree.Root])
}

// treeSeparated evaluates a communication tree with the LMO-style
// separation of contributions: a parent's per-message processing
// serializes across its children while the wire and the receiver's
// processing overlap with the parent's next send —
//
//	T(r, cs) = send(r, b) + max( T(r, rest),
//	                             wire(r,c,b) + recv(c,b) + T(c, children(c)) )
func treeSeparated(tree *collective.Tree, bytes func(c int) int,
	send func(i, bytes int) float64,
	wire func(i, j, bytes int) float64,
	recv func(j, bytes int) float64,
) float64 {
	var down func(r int, cs []int) float64
	down = func(r int, cs []int) float64 {
		if len(cs) == 0 {
			return 0
		}
		c := cs[0]
		b := bytes(c)
		rest := down(r, cs[1:])
		sub := wire(r, c, b) + recv(c, b) + down(c, tree.Children[c])
		return send(r, b) + math.Max(rest, sub)
	}
	return down(tree.Root, tree.Children[tree.Root])
}
