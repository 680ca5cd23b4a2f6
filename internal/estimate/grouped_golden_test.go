package estimate

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topo"
)

// -update regenerates the goldens under testdata/, one test's with -run:
//
//	go test ./internal/estimate -run TestLMOGroupedGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestLMOGroupedGolden pins LMOGrouped's whole model on a 128-host
// fat-tree (k = 8, Ideal profile, seed 1, default options) bit for
// bit: the groups, every C and t, every row of L and β, and the
// gather parameters. Each vector renders run-length encoded
// ("value×count"), which keeps a grouped model's 128×128 matrices a
// few lines per row.
func TestLMOGroupedGolden(t *testing.T) {
	cl := cluster.FromTopology(topo.FatTree(8, topo.DefaultUplink()), cluster.NodeSpec{}, cluster.LinkSpec{})
	model, g, rep, err := LMOGrouped(groupCfg(cl), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "groups %d experiments %d repetitions %d cost %v\n", g.NumGroups(), rep.Experiments, rep.Repetitions, rep.Cost)
	for gi, members := range g.Groups {
		fmt.Fprintf(&b, "group %d: %v\n", gi, members)
	}
	b.WriteString("C:" + runLengths(model.C) + "\n")
	b.WriteString("t:" + runLengths(model.T) + "\n")
	for i := range model.L {
		fmt.Fprintf(&b, "L[%d]:%s\n", i, runLengths(model.L[i]))
	}
	for i := range model.Beta {
		fmt.Fprintf(&b, "beta[%d]:%s\n", i, runLengths(model.Beta[i]))
	}
	fmt.Fprintf(&b, "gather: %+v\n", model.Gather)
	matchGolden(t, "grouped_fattree128.golden", b.String())
}

// matchGolden compares a test's rendering with testdata/name, or
// rewrites the file under -update. A mismatch names the first line
// that differs.
func matchGolden(t *testing.T, name, rendered string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if rendered == string(want) {
		return
	}
	got, exp := strings.Split(rendered, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Fatalf("%s line %d:\nwant %s\ngot  %s", path, i+1, exp[i], got[i])
		}
	}
	t.Fatalf("%s: rendered %d lines, golden has %d", path, len(got), len(exp))
}

// runLengths renders v as runs of bit-identical values, " value×count"
// each, with values in the shortest form that reads back exactly.
func runLengths(v []float64) string {
	var b strings.Builder
	for i := 0; i < len(v); {
		j := i + 1
		for j < len(v) && math.Float64bits(v[j]) == math.Float64bits(v[i]) {
			j++
		}
		fmt.Fprintf(&b, " %s×%d", strconv.FormatFloat(v[i], 'g', -1, 64), j-i)
		i = j
	}
	return b.String()
}
