package models

import (
	"math"

	"repro/internal/collective"
)

// Tree predictions. ScatterTree is purely structural; GatherTree is
// not for the LMO model: the escalations of eq (5) are a property of
// any many-to-one fan-in, not just the flat root's, so the LMO gather
// recursion charges the empirical expectation at every contended
// parent (see LMOX.GatherTree). The structural-only models (Hockney,
// LogP families) ignore the irregularity by construction — they carry
// no empirical parameters.

// Conflated models predict any tree with the eq (1)-style recursion
// over their point-to-point formula.

// ScatterTree predicts a scatter of m-byte blocks over the tree.
func (h *Hockney) ScatterTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, scatterBytes(tree, m), h.P2P)
}

// GatherTree predicts a gather over the tree; indistinguishable from
// scatter under the Hockney model.
func (h *Hockney) GatherTree(tree *collective.Tree, m int) float64 {
	return h.ScatterTree(tree, m)
}

// BcastTree predicts an m-byte broadcast over the tree.
func (h *Hockney) BcastTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, bcastBytes(m), h.P2P)
}

// ReduceTree predicts an m-byte reduction over the tree.
func (h *Hockney) ReduceTree(tree *collective.Tree, m int) float64 {
	return h.BcastTree(tree, m)
}

// ScatterTree predicts a scatter of m-byte blocks over the tree.
func (h *HetHockney) ScatterTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, scatterBytes(tree, m), h.P2P)
}

// GatherTree predicts a gather of m-byte blocks over the tree.
func (h *HetHockney) GatherTree(tree *collective.Tree, m int) float64 {
	return h.ScatterTree(tree, m)
}

// BcastTree predicts an m-byte broadcast over the tree.
func (h *HetHockney) BcastTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, bcastBytes(m), h.P2P)
}

// ReduceTree predicts an m-byte reduction over the tree.
func (h *HetHockney) ReduceTree(tree *collective.Tree, m int) float64 {
	return h.BcastTree(tree, m)
}

// ScatterTree predicts a scatter of m-byte blocks over the tree.
func (l *LogP) ScatterTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, scatterBytes(tree, m), l.P2P)
}

// GatherTree predicts a gather of m-byte blocks over the tree.
func (l *LogP) GatherTree(tree *collective.Tree, m int) float64 {
	return l.ScatterTree(tree, m)
}

// BcastTree predicts an m-byte broadcast over the tree.
func (l *LogP) BcastTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, bcastBytes(m), l.P2P)
}

// ReduceTree predicts an m-byte reduction over the tree.
func (l *LogP) ReduceTree(tree *collective.Tree, m int) float64 {
	return l.BcastTree(tree, m)
}

// ScatterTree predicts a scatter of m-byte blocks over the tree.
func (l *LogGP) ScatterTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, scatterBytes(tree, m), l.P2P)
}

// GatherTree predicts a gather of m-byte blocks over the tree.
func (l *LogGP) GatherTree(tree *collective.Tree, m int) float64 {
	return l.ScatterTree(tree, m)
}

// BcastTree predicts an m-byte broadcast over the tree.
func (l *LogGP) BcastTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, bcastBytes(m), l.P2P)
}

// ReduceTree predicts an m-byte reduction over the tree.
func (l *LogGP) ReduceTree(tree *collective.Tree, m int) float64 {
	return l.BcastTree(tree, m)
}

// ScatterTree predicts a scatter of m-byte blocks over the tree.
func (p *PLogP) ScatterTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, scatterBytes(tree, m), p.P2P)
}

// GatherTree predicts a gather of m-byte blocks over the tree.
func (p *PLogP) GatherTree(tree *collective.Tree, m int) float64 {
	return p.ScatterTree(tree, m)
}

// BcastTree predicts an m-byte broadcast over the tree.
func (p *PLogP) BcastTree(tree *collective.Tree, m int) float64 {
	return treeRecursive(tree, bcastBytes(m), p.P2P)
}

// ReduceTree predicts an m-byte reduction over the tree.
func (p *PLogP) ReduceTree(tree *collective.Tree, m int) float64 {
	return p.BcastTree(tree, m)
}

// The LMO model predicts trees with the separated recursion: the
// parent's per-message processing serializes while wires and the
// children's processing overlap.

// ScatterTree predicts a scatter of m-byte blocks over the tree.
func (x *LMOX) ScatterTree(tree *collective.Tree, m int) float64 {
	return treeSeparated(tree, scatterBytes(tree, m), x.SendCost, x.WireCost, x.RecvCost)
}

// GatherTree predicts a gather over the tree: the up-tree critical path
// mirrors the down-tree one under the separated model, plus the
// empirical irregularity of eq (5). Every interior parent with two or
// more children is a many-to-one fan-in exactly like the flat gather
// root, so its contended child flows carry the empirical branches:
//
//   - In the (M1, M2) region a flow may escalate. The scan measures
//     Prob over the flat n-1-flow fan-in, so one flow's share is
//     Prob(b)/(n-1)·MeanEscalation — which makes the flat tree's n-1
//     edges sum back to the per-operation term GatherLinear charges.
//     With rare escalations the expected delays of distinct flows
//     add, so the charge lands on the parent's serialized slot.
//   - At and above M2 the parent's ingress serializes the transfer
//     itself (eq 5's sum branch): the flow's transmission time joins
//     the serialized slot instead of overlapping with its siblings.
//
// Prob is zero outside (M1, M2) and single-child parents see no
// contention (§III's escalations are a many-to-one phenomenon), so
// regular flows keep the purely structural cost.
func (x *LMOX) GatherTree(tree *collective.Tree, m int) float64 {
	bytes := scatterBytes(tree, m)
	g := x.Gather
	perFlow := 0.0
	if g.Valid() && x.N() > 2 {
		perFlow = g.MeanEscalation() / float64(x.N()-1)
	}
	var up func(r int, cs []int) float64
	up = func(r int, cs []int) float64 {
		if len(cs) == 0 {
			return 0
		}
		c := cs[0]
		b := bytes(c)
		slot := x.RecvCost(r, b)
		if g.Valid() && len(tree.Children[r]) > 1 {
			if b >= g.M2 {
				slot += float64(b) * x.invBeta(c, r)
			} else {
				slot += g.Prob(b) * perFlow
			}
		}
		rest := up(r, cs[1:])
		sub := x.WireCostRev(r, c, b) + x.SendCost(c, b) + up(c, tree.Children[c])
		return slot + math.Max(rest, sub)
	}
	return up(tree.Root, tree.Children[tree.Root])
}

// BcastTree predicts an m-byte broadcast over the tree.
func (x *LMOX) BcastTree(tree *collective.Tree, m int) float64 {
	return treeSeparated(tree, bcastBytes(m), x.SendCost, x.WireCost, x.RecvCost)
}

// ReduceTree predicts an m-byte reduction over the tree. Reduction adds the combine work
// at each interior node, which the model folds into the receive
// processing term (the operands are combined as they are received).
func (x *LMOX) ReduceTree(tree *collective.Tree, m int) float64 {
	return treeSeparated(tree, bcastBytes(m), x.RecvCost, x.WireCostRev, x.SendCost)
}
