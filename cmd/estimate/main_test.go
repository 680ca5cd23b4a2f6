package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/models"
	"repro/internal/mpi"
)

// -json writes exactly the model file of one estimation of the family
// "all" under the same configuration, with the command's Meta.
func TestJSONWritesFamilyAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "4", "-mpi", "ideal", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if stderr.Len() != 0 || !strings.Contains(stdout.String(), "models written to "+path) {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg := mpi.Config{Cluster: cluster.Table1().Prefix(4), Profile: cluster.Ideal(), Seed: 1}
	m, _, err := estimate.Family(nil, cfg, "all", 0, 20, estimate.Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	mf := m.File()
	mf.Meta = &models.Meta{Cluster: "table1", Nodes: 4, Profile: cluster.Ideal().Name, Seed: 1, Est: "parallel", Tool: "cmd/estimate"}
	want, err := mf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-json wrote %d bytes that differ from Family(\"all\")'s %d-byte model file", len(got), len(want))
	}
}

// A bad flag exits 2 before estimating: the reason goes to stderr and
// nothing to stdout.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined: -bogus"},
		{"malformed value", []string{"-n", "four"}, `invalid value "four" for flag -n`},
		{"too few nodes", []string{"-n", "2"}, "-n must be in [3, 16]"},
		{"too many nodes", []string{"-n", "17"}, "-n must be in [3, 16]"},
		{"unknown profile", []string{"-mpi", "openmpi"}, `unknown -mpi "openmpi"`},
		{"bad topology", []string{"-topo", "ring:4"}, `unknown topology kind "ring"`},
		{"oversized topology", []string{"-topo", "fattree:4000000"}, `spec "fattree:4000000" is too large`},
		{"groups with json", []string{"-groups", "-json", "models.json"}, "-json needs the full model suite; drop -groups"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stdout %q, stderr %q; want empty stdout and %q on stderr", stdout.String(), stderr.String(), tc.want)
			}
		})
	}
}

// -groups lists at most eight members of a group and marks the rest:
// on Table I the 9-node group shows its first eight and "+1 more".
func TestGroupsMarkCutMembers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-groups", "-mpi", "ideal"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	cut := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		var gi, n int
		if _, err := fmt.Sscanf(line, "  group %d: %d nodes", &gi, &n); err != nil {
			continue
		}
		list, more, _ := strings.Cut(line[strings.Index(line, "[")+1:], " … +")
		shown, extra := len(strings.Fields(strings.TrimSuffix(list, "]"))), 0
		if more != "" {
			if _, err := fmt.Sscanf(more, "%d more]", &extra); err != nil {
				t.Fatalf("group %d: malformed cut in %q", gi, line)
			}
			cut++
		}
		if shown > 8 || shown+extra != n {
			t.Errorf("group %d lists %d members and %d more, want %d in all, at most 8 shown: %q", gi, shown, extra, n, line)
		}
	}
	if want := "  group 2: 9 nodes [2 4 6 10 11 12 13 14 … +1 more]\n"; cut != 1 || !strings.Contains(stdout.String(), want) {
		t.Fatalf("%d cut groups in\n%s\nwant one: %q", cut, stdout.String(), want)
	}
}
