package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestWorkflowNamesExistingTests keeps CI's named-test steps honest: in
// .github/workflows/ci.yml, every alternative of a go test command's
// -run pattern (other than ^$) must match a Test or Fuzz function of
// the packages the command names, and every -fuzz target a Fuzz
// function. Otherwise a renamed or deleted test would drop out of its
// step with nothing failing.
func TestWorkflowNamesExistingTests(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	named, runs, fuzzes := 0, 0, 0
	for _, line := range strings.Split(string(ci), "\n") {
		line = strings.TrimSpace(line)
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, " && ")
		var run, fuzz string
		var pkgs []string
		fields := strings.Fields(cmd)
		for i := 0; i < len(fields); i++ {
			switch f := fields[i]; {
			case f == "-run" && i+1 < len(fields):
				i++
				run = strings.Trim(fields[i], "'\"")
			case f == "-fuzz" && i+1 < len(fields):
				i++
				fuzz = strings.Trim(fields[i], "'\"")
			case f == "." || strings.HasPrefix(f, "./"):
				pkgs = append(pkgs, f)
			}
		}
		if run == "" && fuzz == "" {
			continue
		}
		named++
		funcs := testFuncs(t, root, pkgs)
		if run != "^$" {
			runs++
			for _, alt := range strings.Split(run, "|") {
				if !matchesAny(t, alt, funcs, "Test", "Fuzz") {
					t.Errorf("ci.yml: -run alternative %q matches no Test or Fuzz function in %v: %s", alt, pkgs, line)
				}
			}
		}
		if fuzz != "" {
			fuzzes++
			if !matchesAny(t, fuzz, funcs, "Fuzz") {
				t.Errorf("ci.yml: -fuzz target %q matches no Fuzz function in %v: %s", fuzz, pkgs, line)
			}
		}
	}
	if named == 0 {
		t.Fatal("ci.yml: found no go test command that names a test")
	}
	t.Logf("ci.yml: %d go test commands name tests: %d -run patterns, %d -fuzz targets", named, runs, fuzzes)
}

// testFuncs returns the names of the top-level functions declared in
// the _test.go files of the packages, given as go test's relative
// directory patterns ("./internal/mpi", ".").
func testFuncs(t *testing.T, root string, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		if strings.Contains(pkg, "...") {
			t.Fatalf("ci.yml: package pattern %q: name the test's package directories", pkg)
		}
		files, err := filepath.Glob(filepath.Join(root, pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// matchesAny reports whether the go test pattern matches a function
// whose name starts with one of the prefixes.
func matchesAny(t *testing.T, pattern string, funcs []string, prefixes ...string) bool {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatalf("ci.yml: bad pattern %q: %v", pattern, err)
	}
	for _, name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
