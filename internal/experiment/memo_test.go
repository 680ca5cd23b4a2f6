package experiment

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/mpi"
)

// kinds counts a memo's entries by what they estimate, the scans
// under "scan".
func kinds(m *memo) map[string]int {
	out := map[string]int{}
	for _, e := range m.entries {
		what := e.what
		if strings.HasPrefix(what, "irregularity detection") {
			what = "scan"
		}
		out[what]++
	}
	return out
}

// TestRunnersShareOneMemo runs every runner concurrently on copies of
// one Default(), as lmobench -exp all does: together they estimate 6
// platforms with LMOX (Table I, its 4-, 6-, 8- and 12-node prefixes
// and the fault study's faulty platform), scan 2 (LAM and MPICH), run
// het-Hockney on 2 (the parallel and the serial schedule) and LogP/LogGP
// and PLogP on 1, each once.
func TestRunnersShareOneMemo(t *testing.T) {
	cfg := Default()
	var wg sync.WaitGroup
	for _, r := range Runners() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(cfg); err != nil {
				t.Errorf("%s: %v", r.ID, err)
			}
		}()
	}
	wg.Wait()
	want := map[string]int{"LMO estimation": 6, "scan": 2, "het-Hockney estimation": 2, "LogP/LogGP estimation": 1, "PLogP estimation": 1}
	if got := kinds(cfg.estimations); !reflect.DeepEqual(got, want) {
		t.Fatalf("memo holds %v, want %v", got, want)
	}
}

// TestDefaultsShareNothing: every Default() starts an empty memo of its
// own, and a config without one gets a fresh one from withDefaults, so
// only the copies of one config share estimations.
func TestDefaultsShareNothing(t *testing.T) {
	a, b := Default(), Default()
	a.Cluster = cluster.Table1().Prefix(4)
	b.Cluster = cluster.Table1().Prefix(4)
	if _, _, err := shared(a, "LMO estimation", estimate.LMOX); err != nil {
		t.Fatal(err)
	}
	if a.estimations == b.estimations || len(a.estimations.entries) != 1 || len(b.estimations.entries) != 0 {
		t.Fatalf("two Default()s share a memo: %d and %d entries", len(a.estimations.entries), len(b.estimations.entries))
	}
	var bare Config
	if c, d := bare.withDefaults(), bare.withDefaults(); c.estimations == nil || c.estimations == d.estimations {
		t.Fatal("withDefaults must give a config without a memo a fresh one")
	}
}

// TestMemoKeysEveryPlatformField asks for the gather scan on a small
// base platform, then on configs that each differ from it in one key
// field: each gets an entry of its own holding its own estimation,
// while fresh but equal clusters and profiles hit the base's entry.
func TestMemoKeysEveryPlatformField(t *testing.T) {
	base := Default()
	base.Cluster, base.Profile, base.ScanReps = cluster.Table1().Prefix(4), cluster.Ideal(), 2
	one := func(edit func(c *Config)) Config {
		c := base
		edit(&c)
		return c
	}
	variants := []Config{
		base,
		one(func(c *Config) { c.Cluster = cluster.Table1().Prefix(5) }),
		one(func(c *Config) { c.Profile = cluster.LAM() }),
		one(func(c *Config) { c.Seed = 2 }),
		one(func(c *Config) { c.Faults = &faults.Plan{Stragglers: []faults.Straggler{{Node: 1, CPUX: 3}}} }),
		one(func(c *Config) { c.Est.MsgSize = 16 << 10 }),
		one(func(c *Config) { c.Root = 1 }),
		one(func(c *Config) { c.ScanReps = 3 }),
	}
	for i, v := range variants {
		got, rep, err := scan(v)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRep, err := estimate.DetectGatherIrregularity(v.MPIConfig(), v.Root, estimate.DefaultScanSizes(), v.ScanReps, v.Est)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("variant %d: memo answered %+v (%+v), want %+v (%+v)", i, got, rep, want, wantRep)
		}
		if n := len(base.estimations.entries); n != i+1 {
			t.Fatalf("variant %d: %d memo entries, want %d", i, n, i+1)
		}
	}
	equal := one(func(c *Config) { c.Cluster, c.Profile = cluster.Table1().Prefix(4), cluster.Ideal() })
	if _, _, err := scan(equal); err != nil {
		t.Fatal(err)
	}
	if n := len(base.estimations.entries); n != len(variants) {
		t.Fatalf("an equal platform built apart added an entry: %d, want %d", n, len(variants))
	}
	if _, _, err := shared(base, "LMO estimation", estimate.LMOX); err != nil {
		t.Fatal(err)
	}
	if n := len(base.estimations.entries); n != len(variants)+1 {
		t.Fatalf("another estimation of the base platform shares the scan's entry: %d entries", n)
	}
}

// TestMemoSharesErrors: a failed estimation runs once, and every caller
// gets its error; two runners on a platform whose node 1 crashes fail
// with the one het-Hockney error.
func TestMemoSharesErrors(t *testing.T) {
	cfg := Default()
	boom := errors.New("boom")
	calls := 0
	est := func(mpi.Config, estimate.Options) (*models.LMOX, estimate.Report, error) {
		calls++
		time.Sleep(10 * time.Millisecond) // let the other callers arrive and wait
		return nil, estimate.Report{}, boom
	}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = shared(cfg, "failing estimation", est)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != errs[0] || !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "failing estimation: ") {
			t.Fatalf("callers got %v and %v, want one error wrapping %v", errs[0], err, boom)
		}
	}
	if calls != 1 {
		t.Fatalf("the failing estimation ran %d times, want once", calls)
	}

	crashing := Default()
	crashing.Cluster = cluster.Table1().Prefix(4)
	crashing.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 0}}}
	_, err1 := Fig1(crashing)
	_, err3 := Fig3(crashing)
	if err1 == nil || err1 != err3 || !strings.HasPrefix(err1.Error(), "het-Hockney estimation: ") {
		t.Fatalf("Fig1 failed with %v, Fig3 with %v: want one het-Hockney error", err1, err3)
	}
}

// TestEstimateAllIsFamilyAll: the models EstimateAll assembles from the
// memo are family "all"'s, costs included, and the scan attaches to a
// copy of the shared LMOX model, which keeps no gather parameters.
func TestEstimateAllIsFamilyAll(t *testing.T) {
	mpich := Default()
	mpich.Cluster, mpich.Profile = cluster.Table1().Prefix(6), cluster.MPICH()
	for name, cfg := range map[string]Config{"table1 lam": Default(), "6-node mpich": mpich} {
		t.Run(name, func(t *testing.T) {
			got, err := EstimateAll(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := estimate.Family(cfg.MPIConfig(), "all", cfg.Root, cfg.ScanReps, cfg.Est)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("EstimateAll differs from family all:\n%+v\n%+v", got, want)
			}
			lmo, _, err := shared(cfg, "LMO estimation", estimate.LMOX)
			if err != nil {
				t.Fatal(err)
			}
			if lmo == got.LMO || !reflect.DeepEqual(lmo.Gather, models.GatherEmpirical{}) {
				t.Fatalf("the scan attached to the shared model: %+v", lmo.Gather)
			}
		})
	}
}
