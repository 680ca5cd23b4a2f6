// Command lmovet runs the repository's determinism, hot-path and
// concurrency lint suite (internal/analysis) over the module:
//
//	go run ./cmd/lmovet ./...
//	go run ./cmd/lmovet -json . ./internal/... ./cmd/...
//
// It loads every non-test package, applies the analyzers according to
// the policy in internal/analysis/policy.go (walltime, globalrand,
// maporder, vtimeblock, hotalloc, snapshotmut, atomicmix, poolreuse,
// directiveaudit) and prints findings as
// file:line:col: analyzer: message — or, with -json, as a JSON array
// of {file, line, col, analyzer, message} objects on stdout for
// editor and CI integration (.github/lmovet-problem-matcher.json
// consumes the plain format). Exit status is 0 when the tree is
// clean, 1 when there are findings, 2 when the module fails to load.
//
// Arguments other than package patterns are not needed: the suite
// always analyzes the whole module ("./..." is accepted for
// familiarity; narrower patterns filter by import-path prefix).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable diagnostic record emitted under
// -json. Positions are 1-based, file paths relative to the working
// directory when possible.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run executes the command and returns its exit code: 0 on a clean
// tree, 1 when there are findings, 2 when the module fails to load.
func run(args []string, stdout, stderr io.Writer) int {
	jsonOut := false
	var patterns []string
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		default:
			patterns = append(patterns, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "lmovet:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "lmovet:", err)
		return 2
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "lmovet:", err)
		return 2
	}

	var out []jsonFinding
	for _, pkg := range mod.Pkgs {
		if !selected(mod.Path, pkg.Path, patterns) {
			continue
		}
		findings, err := analysis.RunAnalyzers(analysis.Scope(pkg.Path), mod.Fset, pkg)
		if err != nil {
			fmt.Fprintln(stderr, "lmovet:", err)
			return 2
		}
		for _, f := range findings {
			pos := mod.Fset.Position(f.Pos)
			file := pos.Filename
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			out = append(out, jsonFinding{
				File: file, Line: pos.Line, Col: pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
		}
	}

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []jsonFinding{} // emit [], not null, for a clean tree
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "lmovet:", err)
			return 2
		}
	} else {
		for _, f := range out {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(out) > 0 {
		fmt.Fprintf(stderr, "lmovet: %d finding(s)\n", len(out))
		return 1
	}
	return 0
}

// selected reports whether the package matches any of the patterns.
// No patterns (or "./...") selects everything; "./internal/..." style
// patterns filter by import-path prefix under the module path.
func selected(modPath, pkgPath string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		if pat == "./..." || pat == "all" {
			return true
		}
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		full := modPath
		if pat != "" && pat != "." {
			full = modPath + "/" + pat
		}
		if pkgPath == full || (recursive && strings.HasPrefix(pkgPath, full+"/")) {
			return true
		}
	}
	return false
}
