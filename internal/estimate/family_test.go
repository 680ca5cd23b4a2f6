package estimate

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
)

// present names the models m holds.
func present(m *Models) []string {
	var out []string
	for _, f := range []struct {
		name string
		ok   bool
	}{
		{"hom", m.Hom != nil}, {"het", m.Het != nil}, {"logp", m.LogP != nil},
		{"loggp", m.LogGP != nil}, {"plogp", m.PLogP != nil}, {"lmo", m.LMO != nil},
		{"lmo5", m.LMO5 != nil},
	} {
		if f.ok {
			out = append(out, f.name)
		}
	}
	return out
}

// TestFamilyTable runs every family of the table on a small Ideal
// cluster with pinned repetitions: each returns exactly its models,
// its procedure costs sum to its report, the scan's families return
// its region, which LMO carries when the family holds both, and a
// het-Hockney model comes with Hockney as its pairwise average.
func TestFamilyTable(t *testing.T) {
	cfg := mpi.Config{Cluster: cluster.Table1().Prefix(4), Profile: cluster.Ideal(), Seed: 1}
	opt := Options{Parallel: true, Mpib: mpib.Options{MinReps: 3, MaxReps: 3}}
	const root, scanReps = 1, 2
	lmox, lmoxRep, err := LMOX(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	irr, scanRep, err := DetectGatherIrregularity(cfg, root, DefaultScanSizes(), scanReps, opt)
	if err != nil {
		t.Fatal(err)
	}
	withScan := *lmox
	withScan.Gather = irr
	want := map[string][]string{
		"all":        {"hom", "het", "logp", "loggp", "plogp", "lmo"},
		"lmo":        {"lmo"},
		"lmox":       {"lmo"},
		"scan":       nil,
		"lmo5":       {"lmo5"},
		"hethockney": {"hom", "het"},
		"hockney":    {"hom"},
		"logp":       {"logp", "loggp"},
		"plogp":      {"plogp"},
	}
	if got := Families(false); len(got) != len(want) {
		t.Fatalf("Families(false) = %v, want the %d families of this table", got, len(want))
	}
	if got, w := Families(true), []string{"all", "lmo", "hethockney", "hockney", "logp", "plogp"}; !slices.Equal(got, w) {
		t.Fatalf("Families(true) = %v, want %v", got, w)
	}
	for _, name := range Families(false) {
		t.Run(name, func(t *testing.T) {
			m, rep, err := Family(nil, cfg, name, root, scanReps, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got, w := present(m), want[name]; !slices.Equal(got, w) {
				t.Fatalf("models %v, want %v", got, w)
			}
			var sum time.Duration
			for _, c := range m.Costs {
				sum += c
			}
			if sum != rep.Cost || rep.Experiments == 0 {
				t.Fatalf("procedure costs %v sum to %v, report %+v", m.Costs, sum, rep)
			}
			wantLMO, wantGather := lmox, models.GatherEmpirical{}
			if _, scans := m.Costs["irregularity-scan"]; scans {
				wantLMO, wantGather = &withScan, irr
			}
			if m.LMO != nil && !reflect.DeepEqual(m.LMO, wantLMO) {
				t.Fatalf("LMO model differs from LMOX with the family's scan:\n%+v\n%+v", m.LMO, wantLMO)
			}
			if !reflect.DeepEqual(m.Gather, wantGather) {
				t.Fatalf("gather region %+v, want %+v", m.Gather, wantGather)
			}
			if m.Het != nil && !reflect.DeepEqual(m.Hom, m.Het.Averaged()) {
				t.Fatalf("Hockney %+v is not het-Hockney's average", m.Hom)
			}
			if servable := slices.Contains(Families(true), name); servable && m.LMO5 != nil {
				t.Fatalf("servable family %s returns the lmo5 model", name)
			}
		})
	}

	t.Run("lmo report is LMOX's plus the scan's", func(t *testing.T) {
		m, rep, err := Family(nil, cfg, "lmo", root, scanReps, opt)
		if err != nil {
			t.Fatal(err)
		}
		w := lmoxRep
		w.Cost += scanRep.Cost
		w.Experiments += scanRep.Experiments
		w.Repetitions += scanRep.Repetitions
		if !reflect.DeepEqual(rep, w) {
			t.Fatalf("report %+v, want %+v", rep, w)
		}
		wantCosts := map[string]time.Duration{"lmo": lmoxRep.Cost, "irregularity-scan": scanRep.Cost}
		if !maps.Equal(m.Costs, wantCosts) {
			t.Fatalf("costs %v, want %v", m.Costs, wantCosts)
		}
	})

	t.Run("unknown family", func(t *testing.T) {
		m, _, err := Family(nil, cfg, "lmo6", root, scanReps, opt)
		if err == nil || m != nil {
			t.Fatalf("unknown family: models %v, err %v", m, err)
		}
		for _, name := range Families(false) {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not list family %q", err, name)
			}
		}
	})
}

// TestFamilyAttachesScanRegion checks on a LAM cluster, where the scan
// finds an irregular region, that LMO's model carries it.
func TestFamilyAttachesScanRegion(t *testing.T) {
	cfg := homConfig(8)
	cfg.Profile = cluster.LAM()
	cfg.Seed = 42
	opt := Options{Parallel: true, Mpib: mpib.Options{MinReps: 3, MaxReps: 3}}
	irr, _, err := DetectGatherIrregularity(cfg, 0, DefaultScanSizes(), 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Family(nil, cfg, "lmo", 0, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !irr.Valid() || !reflect.DeepEqual(m.LMO.Gather, irr) || !reflect.DeepEqual(m.Gather, irr) {
		t.Fatalf("LMO gather parameters %+v, want the scan's %+v", m.LMO.Gather, irr)
	}
}
