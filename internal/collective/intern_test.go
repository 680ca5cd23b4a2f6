package collective

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestInternedTreesAreShared(t *testing.T) {
	for _, alg := range Algorithms() {
		if a, b := alg.Tree(16, 3), alg.Tree(16, 3); a != b {
			t.Errorf("%v: repeated Tree calls built two trees", alg)
		}
	}
	same := []struct {
		name string
		a, b *Tree
	}{
		{"binary is degree 2", AlgBinary.Tree(16, 3), ShapeTree(AlgBinary, 2, 16, 3)},
		{"degree overrides the family", ShapeTree(AlgChain, 4, 16, 3), ShapeTree(AlgBinary, 4, 16, 3)},
		{"degrees past n-1 share", ShapeTree(AlgBinary, 15, 16, 3), ShapeTree(AlgBinary, 99, 16, 3)},
		{"degree below 2 keeps the family", ShapeTree(AlgChain, 1, 16, 3), AlgChain.Tree(16, 3)},
	}
	for _, s := range same {
		if s.a != s.b {
			t.Errorf("%s: got two trees", s.name)
		}
	}
}

// TestInternedTreesMatchBuilders checks every shape, including the
// ones past the cap that come back freshly built.
func TestInternedTreesMatchBuilders(t *testing.T) {
	check := func(name string, got, want *Tree) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: interned tree differs from the builder's:\n%v\nwant\n%v", name, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for n := 1; n <= 33; n++ {
		for root := 0; root < n; root++ {
			check(fmt.Sprintf("linear n=%d root=%d", n, root), AlgLinear.Tree(n, root), Flat(n, root))
			check(fmt.Sprintf("binomial n=%d root=%d", n, root), AlgBinomial.Tree(n, root), Binomial(n, root))
			check(fmt.Sprintf("binary n=%d root=%d", n, root), AlgBinary.Tree(n, root), KAry(n, root, 2))
			check(fmt.Sprintf("chain n=%d root=%d", n, root), AlgChain.Tree(n, root), Chain(n, root))
			for k := 2; k <= n+1; k++ {
				check(fmt.Sprintf("%d-ary n=%d root=%d", k, n, root), ShapeTree(AlgBinary, k, n, root), KAry(n, root, k))
			}
		}
	}
}

// TestInternConcurrentFirstUse races first users of one key; the tree
// is large so that their builds overlap.
func TestInternConcurrentFirstUse(t *testing.T) {
	var tab internTable
	const n = 1 << 12
	k := treeKey{alg: AlgBinomial, n: n, root: 5}
	const goroutines = 16
	got := make([]*Tree, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = tab.get(k)
		}()
	}
	close(start)
	wg.Wait()
	for i, tr := range got {
		if tr != got[0] {
			t.Fatalf("goroutine %d got a different tree than goroutine 0", i)
		}
	}
	if held := tab.ranks.Load(); held != n {
		t.Fatalf("table holds %d ranks, want %d", held, n)
	}
}

func TestInternPastTheCap(t *testing.T) {
	var tab internTable
	const n = 4096
	root := 0
	for ; tab.ranks.Load()+n <= maxInternedRanks; root++ {
		if a, b := tab.get(treeKey{alg: AlgLinear, n: n, root: root}), tab.get(treeKey{alg: AlgLinear, n: n, root: root}); a != b {
			t.Fatalf("root %d: two trees below the cap", root)
		}
	}
	held := tab.ranks.Load()
	k := treeKey{alg: AlgLinear, n: n, root: root}
	a, b := tab.get(k), tab.get(k)
	if a == b {
		t.Fatal("past the cap the table still shares trees")
	}
	if !reflect.DeepEqual(a, Flat(n, root)) || !reflect.DeepEqual(b, Flat(n, root)) {
		t.Fatal("past the cap the fresh trees differ from the builder's")
	}
	if tab.ranks.Load() != held {
		t.Fatalf("table grew from %d to %d ranks past the cap", held, tab.ranks.Load())
	}
}

func TestInternPanicsLikeBuilders(t *testing.T) {
	panicOf := func(fn func()) (msg any) {
		defer func() { msg = recover() }()
		fn()
		return nil
	}
	cases := []struct {
		name         string
		shared, want func()
	}{
		{"n=0", func() { AlgBinomial.Tree(0, 0) }, func() { Binomial(0, 0) }},
		{"n=-3 k-ary", func() { ShapeTree(AlgBinary, 3, -3, 0) }, func() { KAry(-3, 0, 3) }},
		{"root=n", func() { AlgLinear.Tree(4, 4) }, func() { Flat(4, 4) }},
		{"root=-1", func() { AlgChain.Tree(4, -1) }, func() { Chain(4, -1) }},
		{"root=-1 k-ary", func() { ShapeTree(AlgLinear, 3, 4, -1) }, func() { KAry(4, -1, 3) }},
	}
	for _, c := range cases {
		got, want := panicOf(c.shared), panicOf(c.want)
		if got == nil || got != want {
			t.Errorf("%s: panicked with %v, builder panics with %v", c.name, got, want)
		}
	}
}
