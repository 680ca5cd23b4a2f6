package experiment

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/models"
)

// TestRunnersShareOneMemo runs every runner concurrently on copies of
// one Default(), as lmobench -exp all does: together they estimate 6
// platforms with LMOX (Table I, its 4-, 6-, 8- and 12-node prefixes
// and the fault study's faulty platform), scan 2 (LAM and MPICH), run
// het-Hockney on 2 (the parallel and the serial schedule), LogP/LogGP
// and PLogP on 1, and solve the five-parameter LMO on 1, each once.
// Another Default(), and a config that had no memo, start empty memos
// of their own.
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
	want := map[string]int{
		"LMO estimation": 6, "irregularity detection": 2, "het-Hockney estimation": 2,
		"LogP/LogGP estimation": 1, "PLogP estimation": 1, "five-parameter LMO estimation": 1,
	}
	if got := cfg.estimations.Estimations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("memo holds %v, want %v", got, want)
	}
	if n := len(Default().estimations.Estimations()); n != 0 {
		t.Fatalf("a new Default() shares %d estimations", n)
	}
	var bare Config
	if c, d := bare.withDefaults(), bare.withDefaults(); c.estimations == nil || c.estimations == d.estimations {
		t.Fatal("withDefaults must give a config without a memo a fresh one")
	}
}

// TestFiguresShareOneError: Fig1 and Fig3 on a platform whose node 1
// crashes fail with the one het-Hockney error their memo holds.
func TestFiguresShareOneError(t *testing.T) {
	crashing := Default()
	crashing.Cluster = cluster.Table1().Prefix(4)
	crashing.Faults = &faults.Plan{Crashes: []faults.Crash{{Node: 1, At: 0}}}
	_, err1 := Fig1(crashing)
	_, err3 := Fig3(crashing)
	if err1 == nil || err1 != err3 || !strings.HasPrefix(err1.Error(), "het-Hockney estimation: ") {
		t.Fatalf("Fig1 failed with %v, Fig3 with %v: want one het-Hockney error", err1, err3)
	}
}

// TestEstimateAllIsFamilyAll: the models EstimateAll takes from the
// memo are family "all"'s without one, costs included, and the scan
// attaches to a copy of the shared LMOX model, which keeps no gather
// parameters.
func TestEstimateAllIsFamilyAll(t *testing.T) {
	mpich := Default()
	mpich.Cluster, mpich.Profile = cluster.Table1().Prefix(6), cluster.MPICH()
	for name, cfg := range map[string]Config{"table1 lam": Default(), "6-node mpich": mpich} {
		t.Run(name, func(t *testing.T) {
			got, err := EstimateAll(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := estimate.Family(nil, cfg.MPIConfig(), "all", cfg.Root, cfg.ScanReps, cfg.Est)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("EstimateAll differs from family all:\n%+v\n%+v", got, want)
			}
			lmox, _, err := cfg.family("lmox")
			if err != nil {
				t.Fatal(err)
			}
			if lmox.LMO == got.LMO || !reflect.DeepEqual(lmox.LMO.Gather, models.GatherEmpirical{}) {
				t.Fatalf("the scan attached to the shared model: %+v", lmox.LMO.Gather)
			}
		})
	}
}
