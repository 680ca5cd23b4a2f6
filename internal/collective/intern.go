package collective

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// maxInternedRanks caps the ranks the intern table holds, so a caller
// sweeping ever larger geometries cannot grow it without bound. Every
// shape of every n ≤ 16 (all roots, the flat, binomial and chain trees
// and every k-ary degree) totals 19 998 ranks and fits, which covers
// each shape a Table I query can name. Past the cap the accessors build
// a private tree per call.
const maxInternedRanks = 1 << 15

// treeKey names one interned tree. degree is the k-ary degree of the
// AlgBinary family, clamped to [1, n-1] because every larger degree
// builds the same tree; it is 0 for the other families.
type treeKey struct {
	alg             Alg
	degree, n, root int
}

// build constructs the tree the key names, panicking on a bad n, root
// or algorithm exactly like the builder it calls.
func (k treeKey) build() *Tree {
	switch k.alg {
	case AlgLinear:
		return Flat(k.n, k.root)
	case AlgBinomial:
		return Binomial(k.n, k.root)
	case AlgBinary:
		return KAry(k.n, k.root, k.degree)
	case AlgChain:
		return Chain(k.n, k.root)
	default:
		panic(fmt.Sprintf("collective: unknown algorithm %d", k.alg))
	}
}

// id packs a key into one map word. It is unique over the keys the
// table can hold: a known algorithm, 1 <= n <= maxInternedRanks < 2^16,
// root and degree below n.
func (k treeKey) id() uint64 {
	return uint64(k.alg)<<48 | uint64(k.degree)<<32 | uint64(k.n)<<16 | uint64(k.root)
}

// internTable holds one shared tree per key, filled lazily and never
// evicted. Readers load an immutable map snapshot with one atomic
// pointer read, so a hit takes no lock and allocates nothing;
// publishers serialize on mu and store a copy that adds the new tree.
type internTable struct {
	mu    sync.Mutex
	trees atomic.Pointer[map[uint64]*Tree] // immutable once stored
	ranks atomic.Int64                     // ranks held by trees, at most maxInternedRanks
}

// interned is the table behind Alg.Tree and ShapeTree.
var interned internTable

// lookup returns the shared tree with the given id, or nil.
func (tab *internTable) lookup(id uint64) *Tree {
	if m := tab.trees.Load(); m != nil {
		return (*m)[id]
	}
	return nil
}

// get returns the shared tree for k, building and publishing it on
// first use; concurrent first users all receive the one tree
// published. A tree that would take the table past maxInternedRanks is
// built afresh on every call.
func (tab *internTable) get(k treeKey) *Tree {
	// Bad input panics in build; a tree larger than the cap never fits.
	if k.alg < AlgLinear || k.alg > AlgChain || k.n < 1 || k.n > maxInternedRanks || k.root < 0 || k.root >= k.n {
		return k.build()
	}
	id := k.id()
	if t := tab.lookup(id); t != nil {
		return t
	}
	if tab.ranks.Load()+int64(k.n) > maxInternedRanks {
		return k.build()
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if t := tab.lookup(id); t != nil {
		return t
	}
	t := k.build()
	if tab.ranks.Load()+int64(k.n) > maxInternedRanks {
		return t
	}
	next := map[uint64]*Tree{id: t}
	if old := tab.trees.Load(); old != nil {
		maps.Copy(next, *old)
	}
	tab.trees.Store(&next)
	tab.ranks.Add(int64(k.n))
	return t
}

// ShapeTree returns the shared, read-only communication tree of a
// collective shape over n ranks rooted at root: a k-ary tree of the
// given degree when degree >= 2, whatever the algorithm family, and
// otherwise the algorithm's own tree (AlgBinary being the 2-ary tree).
// Each tree is built once per process and reused, so a caller must not
// modify it; the builders (Flat, Binomial, Chain, KAry) construct a
// private tree. It panics on the same bad input as the builders.
func ShapeTree(alg Alg, degree, n, root int) *Tree {
	k := treeKey{alg: alg, n: n, root: root}
	switch {
	case degree >= 2:
		k.alg, k.degree = AlgBinary, degree
	case alg == AlgBinary:
		k.degree = 2
	}
	if k.alg == AlgBinary {
		k.degree = max(1, min(k.degree, n-1))
	}
	return interned.get(k)
}
