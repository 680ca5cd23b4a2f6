package collective

import "fmt"

// Alg selects a collective algorithm by the shape of its communication
// tree. It lives here (rather than in package mpi) so the model layer
// and the optimizers can share one algorithm vocabulary with the
// simulator without importing it; package mpi aliases the type and its
// constants under the traditional names (mpi.Linear, mpi.Binomial, …).
type Alg int

// Collective algorithms implemented by the simulator and predicted by
// the models. The constants carry an Alg prefix because the bare names
// belong to this package's tree constructors.
const (
	AlgLinear   Alg = iota // flat tree: the root talks to everyone directly
	AlgBinomial            // binomial tree, as in Fig 2
	AlgBinary              // balanced binary tree over contiguous ranges
	AlgChain               // chain (pipeline) tree
)

// Algorithms lists every collective algorithm.
func Algorithms() []Alg { return []Alg{AlgLinear, AlgBinomial, AlgBinary, AlgChain} }

// String returns the algorithm name.
func (a Alg) String() string {
	switch a {
	case AlgLinear:
		return "linear"
	case AlgBinomial:
		return "binomial"
	case AlgBinary:
		return "binary"
	case AlgChain:
		return "chain"
	default:
		return fmt.Sprintf("Alg(%d)", int(a))
	}
}

// ParseAlg is the inverse of String, for serialized decision tables
// and request payloads.
func ParseAlg(s string) (Alg, error) {
	switch s {
	case "linear":
		return AlgLinear, nil
	case "binomial":
		return AlgBinomial, nil
	case "binary":
		return AlgBinary, nil
	case "chain":
		return AlgChain, nil
	default:
		return 0, fmt.Errorf("collective: unknown algorithm %q", s)
	}
}

// Tree returns the shared, read-only communication tree the algorithm
// uses for n ranks rooted at root (see ShapeTree).
func (a Alg) Tree(n, root int) *Tree { return ShapeTree(a, 0, n, root) }
