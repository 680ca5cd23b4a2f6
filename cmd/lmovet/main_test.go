package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/analysis"
)

func TestSelected(t *testing.T) {
	cases := []struct {
		patterns []string
		pkg      string
		want     bool
	}{
		{nil, "repro/internal/mpi", true},
		{[]string{"./..."}, "repro/internal/mpi", true},
		{[]string{"all"}, "repro/cmd/lmovet", true},
		{[]string{"."}, "repro", true},
		{[]string{"."}, "repro/internal/mpi", false},
		{[]string{"./internal/..."}, "repro/internal", true},
		{[]string{"./internal/..."}, "repro/internal/mpi", true},
		{[]string{"./internal/..."}, "repro/cmd/lmovet", false},
		{[]string{"./internal/mpi"}, "repro/internal/mpi", true},
		{[]string{"./internal/mpi"}, "repro/internal/mpib", false},
		{[]string{"./cmd/...", "./examples/..."}, "repro/internal/mpi", false},
	}
	for _, tc := range cases {
		if got := selected("repro", tc.pkg, tc.patterns); got != tc.want {
			t.Errorf("selected(%q, %v) = %v, want %v", tc.pkg, tc.patterns, got, tc.want)
		}
	}
}

// chdir moves the test into dir until it ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOutsideAModuleExits2(t *testing.T) {
	dir := t.TempDir()
	if _, err := analysis.FindModuleRoot(dir); err == nil {
		t.Skipf("the temporary directory %s lies inside a module", dir)
	}
	chdir(t, dir)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr %q", code, stderr.String())
	}
	if stdout.Len() != 0 || stderr.Len() == 0 {
		t.Fatalf("stdout %q, stderr %q; want the error on stderr alone", stdout.String(), stderr.String())
	}
}

func TestCleanModuleJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0; stdout %s, stderr %s", code, stdout.String(), stderr.String())
	}
	if got := stdout.String(); got != "[]\n" {
		t.Fatalf("stdout %q, want %q", got, "[]\n")
	}
}
