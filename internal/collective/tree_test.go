package collective

import (
	"testing"
	"testing/quick"
)

func TestBinomial16MatchesFig2(t *testing.T) {
	tr := Binomial(16, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig 2: root 0 has children 8, 4, 2, 1 carrying 8, 4, 2, 1 blocks.
	wantChildren := []int{8, 4, 2, 1}
	if got := tr.Children[0]; len(got) != 4 {
		t.Fatalf("root children = %v", got)
	} else {
		for i, c := range got {
			if c != wantChildren[i] {
				t.Fatalf("root children = %v, want %v", got, wantChildren)
			}
			if tr.Blocks(c) != wantChildren[i] {
				t.Fatalf("blocks into %d = %d, want %d", c, tr.Blocks(c), wantChildren[i])
			}
		}
	}
	// Node 8 heads the order-3 subtree: children 12, 10, 9.
	want8 := []int{12, 10, 9}
	got8 := tr.Children[8]
	if len(got8) != 3 {
		t.Fatalf("children of 8 = %v", got8)
	}
	for i := range want8 {
		if got8[i] != want8[i] {
			t.Fatalf("children of 8 = %v, want %v", got8, want8)
		}
	}
	// Blocks on those arcs: 4, 2, 1.
	for i, c := range got8 {
		want := []int{4, 2, 1}[i]
		if tr.Blocks(c) != want {
			t.Fatalf("blocks into %d = %d, want %d", c, tr.Blocks(c), want)
		}
	}
	// Height of a 16-node binomial tree is log2(16) = 4.
	if h := height(tr); h != 4 {
		t.Fatalf("height = %d, want 4", h)
	}
}

func TestBinomialNonRootRelabeling(t *testing.T) {
	tr := Binomial(16, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Relative structure is preserved: root's first child is rel 8,
	// i.e. absolute (5+8)%16 = 13.
	if tr.Children[5][0] != 13 {
		t.Fatalf("first child of root 5 = %d, want 13", tr.Children[5][0])
	}
	if tr.Blocks(13) != 8 {
		t.Fatalf("blocks into 13 = %d, want 8", tr.Blocks(13))
	}
}

func TestBinomialNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9, 11, 13} {
		tr := Binomial(n, 0)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		total := 0
		for _, c := range tr.Children[0] {
			total += tr.SubtreeSize[c]
		}
		if total != n-1 {
			t.Fatalf("n=%d: root subtrees cover %d, want %d", n, total, n-1)
		}
	}
}

func TestBinomialSingleRank(t *testing.T) {
	tr := Binomial(1, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if height(tr) != 0 || len(tr.Children[0]) != 0 {
		t.Fatal("single-rank tree should be trivial")
	}
}

func TestFlatTree(t *testing.T) {
	tr := Flat(8, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Children[3]) != 7 {
		t.Fatalf("flat root children = %v", tr.Children[3])
	}
	for r := 0; r < 8; r++ {
		if r == 3 {
			continue
		}
		if tr.Parent[r] != 3 {
			t.Fatalf("parent of %d = %d", r, tr.Parent[r])
		}
		if tr.Blocks(r) != 1 {
			t.Fatalf("flat arc blocks = %d", tr.Blocks(r))
		}
		if tr.Depth(r) != 1 {
			t.Fatalf("flat depth = %d", tr.Depth(r))
		}
	}
	if height(tr) != 1 {
		t.Fatalf("flat height = %d", height(tr))
	}
}

func TestRelRangeContiguous(t *testing.T) {
	tr := Binomial(16, 0)
	// Subtree at 8 covers relative ranks [8, 16).
	lo, hi := tr.RelRange(8)
	if lo != 8 || hi != 16 {
		t.Fatalf("RelRange(8) = [%d,%d), want [8,16)", lo, hi)
	}
	// With root 5, subtree at absolute 13 (relative 8) covers [8, 16).
	tr5 := Binomial(16, 5)
	lo, hi = tr5.RelRange(13)
	if lo != 8 || hi != 16 {
		t.Fatalf("root-5 RelRange(13) = [%d,%d), want [8,16)", lo, hi)
	}
}

// Property: for any n and root, binomial and flat trees validate, the
// subtree sizes at the root's children sum to n-1, and every subtree's
// relative range is contiguous and matches its rank set.
func TestTreePropertyInvariants(t *testing.T) {
	f := func(n16 uint8, rootRaw uint8, binomial bool) bool {
		n := int(n16%32) + 1
		root := int(rootRaw) % n
		var tr *Tree
		if binomial {
			tr = Binomial(n, root)
		} else {
			tr = Flat(n, root)
		}
		if tr.Validate() != nil {
			return false
		}
		for r := 0; r < n; r++ {
			ranks := tr.SubtreeRanks(r)
			if len(ranks) != tr.SubtreeSize[r] {
				return false
			}
			lo, hi := tr.RelRange(r)
			if hi-lo != len(ranks) {
				return false
			}
			// Every subtree member's relative rank falls in [lo, hi).
			for _, m := range ranks {
				rel := (m - root + n) % n
				if rel < lo || rel >= hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthMatchesBinomialOrder(t *testing.T) {
	tr := Binomial(8, 0)
	wantDepth := map[int]int{0: 0, 4: 1, 2: 1, 1: 1, 6: 2, 5: 2, 3: 2, 7: 3}
	for r, want := range wantDepth {
		if got := tr.Depth(r); got != want {
			t.Fatalf("depth(%d) = %d, want %d", r, got, want)
		}
	}
}

func TestTreeStringRendersBlocks(t *testing.T) {
	s := Binomial(4, 0).String()
	if s == "" {
		t.Fatal("empty rendering")
	}
	for _, want := range []string{"0 (root)", "[2 block(s)]", "[1 block(s)]"} {
		if !contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestTreePanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { Binomial(0, 0) },
		func() { Binomial(4, 4) },
		func() { Flat(4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// height returns the maximum depth over all ranks.
func height(t *Tree) int {
	h := 0
	for r := 0; r < t.N; r++ {
		if d := t.Depth(r); d > h {
			h = d
		}
	}
	return h
}
