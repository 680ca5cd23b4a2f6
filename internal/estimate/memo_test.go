package estimate

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/mpi"
)

// family runs Family with c's arguments through m.
func family(m *Memo, c call, name string) (*Models, Report, error) {
	return Family(m, c.cfg, name, c.root, c.scanReps, c.opt)
}

// TestMemoKeysEveryPlatformField asks for the gather scan on a small
// base platform, then on calls that each differ from it in one key
// field: each gets an entry of its own holding its own estimation,
// while fresh but equal clusters and profiles hit the base's entry.
// Another procedure on the base platform gets an entry of its own,
// whose key ignores the scan's root and repetitions.
func TestMemoKeysEveryPlatformField(t *testing.T) {
	base := call{cfg: mpi.Config{Cluster: cluster.Table1().Prefix(4), Profile: cluster.Ideal(), Seed: 1}, scanReps: 2, opt: Options{Parallel: true}}
	one := func(edit func(c *call)) call {
		c := base
		edit(&c)
		return c
	}
	variants := []call{
		base,
		one(func(c *call) { c.cfg.Cluster = cluster.Table1().Prefix(5) }),
		one(func(c *call) { c.cfg.Profile = cluster.LAM() }),
		one(func(c *call) { c.cfg.Seed = 2 }),
		one(func(c *call) { c.cfg.Faults = &faults.Plan{Stragglers: []faults.Straggler{{Node: 1, CPUX: 3}}} }),
		one(func(c *call) { c.opt.MsgSize = 16 << 10 }),
		one(func(c *call) { c.root = 1 }),
		one(func(c *call) { c.scanReps = 3 }),
	}
	var m Memo
	for i, v := range variants {
		got, rep, err := family(&m, v, "scan")
		if err != nil {
			t.Fatal(err)
		}
		want, wantRep, err := family(nil, v, "scan")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("variant %d: memo answered %+v (%+v), want %+v (%+v)", i, got, rep, want, wantRep)
		}
		if n := len(m.entries); n != i+1 {
			t.Fatalf("variant %d: %d memo entries, want %d", i, n, i+1)
		}
	}
	equal := one(func(c *call) { c.cfg.Cluster, c.cfg.Profile = cluster.Table1().Prefix(4), cluster.Ideal() })
	if _, _, err := family(&m, equal, "scan"); err != nil {
		t.Fatal(err)
	}
	if n := len(m.entries); n != len(variants) {
		t.Fatalf("an equal platform built apart added an entry: %d, want %d", n, len(variants))
	}
	for _, c := range []call{base, one(func(c *call) { c.root, c.scanReps = 1, 3 })} {
		if _, _, err := family(&m, c, "lmox"); err != nil {
			t.Fatal(err)
		}
		if n := len(m.entries); n != len(variants)+1 {
			t.Fatalf("LMOX on the base platform: %d entries, want %d", n, len(variants)+1)
		}
	}
}

// TestDefaultsShareNothing: Family's zero memo, nil, shares nothing,
// and neither do two memos: only the calls through one memo share an
// estimation, the same model included.
func TestDefaultsShareNothing(t *testing.T) {
	c := call{cfg: mpi.Config{Cluster: cluster.Table1().Prefix(4), Profile: cluster.Ideal(), Seed: 1}, scanReps: 2, opt: Options{Parallel: true}}
	var a, b Memo
	first, _, err := family(&a, c, "lmox")
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := family(&a, c, "lmox")
	if err != nil {
		t.Fatal(err)
	}
	if first.LMO != again.LMO || len(a.entries) != 1 || len(b.entries) != 0 {
		t.Fatalf("one memo: models %p and %p; two memos hold %d and %d entries", first.LMO, again.LMO, len(a.entries), len(b.entries))
	}
	x, _, err := family(nil, c, "lmox")
	if err != nil {
		t.Fatal(err)
	}
	y, _, err := family(nil, c, "lmox")
	if err != nil {
		t.Fatal(err)
	}
	if x.LMO == y.LMO || x.LMO == first.LMO || !reflect.DeepEqual(x, first) {
		t.Fatalf("without a memo: models %p and %p, the memo's %p; want equal models of their own", x.LMO, y.LMO, first.LMO)
	}
}

// TestMemoSharesErrors: on a platform whose node 1 crashes, a failed
// estimation runs once and every caller gets its one error, whichever
// family asked for it; the five-parameter LMO fails with the error of
// the LMOX run it takes from the memo.
func TestMemoSharesErrors(t *testing.T) {
	crashing := call{cfg: mpi.Config{
		Cluster: cluster.Table1().Prefix(4), Profile: cluster.Ideal(), Seed: 1,
		Faults: &faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 0}}},
	}, scanReps: 2, opt: Options{Parallel: true}}
	var m Memo
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = family(&m, crashing, []string{"hethockney", "all"}[i%2])
		}()
	}
	wg.Wait()
	var crash *mpi.CrashError
	for _, err := range errs {
		if err != errs[0] || !errors.As(err, &crash) || !strings.HasPrefix(err.Error(), "het-Hockney estimation: ") {
			t.Fatalf("callers got %v and %v, want one het-Hockney error wrapping a crash", errs[0], err)
		}
	}
	if n := len(m.entries); n != 1 {
		t.Fatalf("%d memo entries, want het-Hockney's alone", n)
	}

	_, _, errX := family(&m, crashing, "lmox")
	_, _, err5 := family(&m, crashing, "lmo5")
	if errX == nil || !errors.Is(err5, errX) || !strings.HasPrefix(err5.Error(), "five-parameter LMO estimation: LMO estimation: ") {
		t.Fatalf("lmox failed with %v, lmo5 with %v: want lmo5's to wrap lmox's", errX, err5)
	}
}
