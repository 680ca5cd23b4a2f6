package collective

import (
	"testing"
	"testing/quick"
)

func TestChainStructure(t *testing.T) {
	tr := Chain(5, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// 0→1→2→3→4; arc into rank k carries 5-k blocks.
	for k := 1; k < 5; k++ {
		if tr.Parent[k] != k-1 {
			t.Fatalf("parent[%d] = %d", k, tr.Parent[k])
		}
		if tr.Blocks(k) != 5-k {
			t.Fatalf("blocks into %d = %d, want %d", k, tr.Blocks(k), 5-k)
		}
	}
	if height(tr) != 4 {
		t.Fatalf("chain height = %d", height(tr))
	}
}

func TestChainNonZeroRoot(t *testing.T) {
	tr := Chain(4, 2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Relative chain 2→3→0→1.
	want := map[int]int{3: 2, 0: 3, 1: 0}
	for child, parent := range want {
		if tr.Parent[child] != parent {
			t.Fatalf("parent[%d] = %d, want %d", child, tr.Parent[child], parent)
		}
	}
}

func TestBinaryStructure(t *testing.T) {
	tr := AlgBinary.Tree(7, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Root keeps 0 and splits {1..6} into {1,2,3} and {4,5,6}.
	cs := tr.Children[0]
	if len(cs) != 2 || cs[0] != 1 || cs[1] != 4 {
		t.Fatalf("root children = %v", cs)
	}
	if tr.SubtreeSize[1] != 3 || tr.SubtreeSize[4] != 3 {
		t.Fatalf("subtree sizes = %d, %d", tr.SubtreeSize[1], tr.SubtreeSize[4])
	}
	// Binary tree height is logarithmic: for n=7 expect 2 or 3.
	if h := height(tr); h > 3 {
		t.Fatalf("height = %d", h)
	}
}

func TestKAryDegenerateCases(t *testing.T) {
	// k=1 degenerates to the chain.
	a, b := KAry(6, 0, 1), Chain(6, 0)
	for r := 0; r < 6; r++ {
		if a.Parent[r] != b.Parent[r] {
			t.Fatalf("1-ary != chain at %d", r)
		}
	}
	// k >= n-1 degenerates to the flat tree.
	f := KAry(6, 0, 8)
	if len(f.Children[0]) != 5 {
		t.Fatalf("wide k-ary should be flat: %v", f.Children[0])
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKAryPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KAry(4, 0, 0)
}

// Property: chain and k-ary trees validate and keep subtree relative
// ranges contiguous for any n, root and k.
func TestMoreTreesPropertyInvariants(t *testing.T) {
	f := func(n8, root8, k8 uint8) bool {
		n := int(n8%20) + 1
		root := int(root8) % n
		k := int(k8%4) + 1
		for _, tr := range []*Tree{Chain(n, root), KAry(n, root, k)} {
			if tr.Validate() != nil {
				return false
			}
			for r := 0; r < n; r++ {
				lo, hi := tr.RelRange(r)
				ranks := tr.SubtreeRanks(r)
				if hi-lo != len(ranks) {
					return false
				}
				for _, m := range ranks {
					rel := (m - root + n) % n
					if rel < lo || rel >= hi {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeShapesDiffer(t *testing.T) {
	n := 16
	heights := map[string]int{
		"flat":     height(Flat(n, 0)),
		"binomial": height(Binomial(n, 0)),
		"binary":   height(KAry(n, 0, 2)),
		"chain":    height(Chain(n, 0)),
	}
	if !(heights["flat"] < heights["binomial"] && heights["binomial"] <= heights["binary"] && heights["binary"] < heights["chain"]) {
		t.Fatalf("unexpected height ordering: %v", heights)
	}
}
