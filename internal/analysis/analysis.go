// Package analysis is the repository's static-analysis layer: a
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis contract (the module deliberately has no third-party
// requirements), plus the lmovet analyzers that mechanically enforce
// the simulator's determinism, hot-path and concurrency invariants.
//
// The framework mirrors the upstream API where it matters — an
// Analyzer owns a Run function over a Pass; a Pass exposes the
// package's syntax, type information and a Report sink — so the
// analyzers would port to x/tools unchanged if the dependency ever
// became available. Packages are loaded by the module-aware loader in
// load.go (module packages are type-checked from source, the standard
// library through go/importer's source compiler), so the whole suite
// runs with nothing but the Go toolchain. Interprocedural analyzers
// additionally share a package-level call graph (callgraph.go),
// built lazily once per package and reached through Pass.CallGraph.
//
// Source files opt out of individual checks with directive comments:
//
//	//lmovet:allow <analyzer>   suppress findings on this (or the next) line
//	//lmovet:commutative        assert a map-range body is order-insensitive
//	//lmovet:hotpath            mark a function allocation-free (hotalloc)
//
// A directive written as a trailing comment applies to its own line; a
// standalone directive comment applies to the line directly below it.
// The directiveaudit analyzer reports directives that no longer
// suppress or annotate anything, so stale escape hatches cannot
// accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer minus the parts this suite
// does not need (flags, facts, requires-graph).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the Pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is one diagnostic attributed to the analyzer that produced
// it — the multichecker's output unit.
type Finding struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic. Findings suppressed by an
	// //lmovet:allow directive for this analyzer are dropped here, so
	// analyzers report unconditionally.
	Report func(Diagnostic)

	directives *directiveIndex
	pkg        *Package // owning package, for the shared call-graph cache
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Commutative reports whether the statement at pos carries an
// //lmovet:commutative directive (trailing, or on the line above).
func (p *Pass) Commutative(pos token.Pos) bool {
	if rec := p.directives.commutative[p.lineOf(pos)]; rec != nil {
		rec.usedAny = true
		return true
	}
	return false
}

// Hotpath reports whether decl is annotated //lmovet:hotpath, either
// in its doc comment or on the line directly above the declaration.
func (p *Pass) Hotpath(decl *ast.FuncDecl) bool {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if d, ok := parseDirective(c.Text); ok && d.kind == "hotpath" {
				if rec := p.directives.hotpath[p.lineOf(c.Pos())]; rec != nil {
					rec.usedAny = true
				}
				return true
			}
		}
	}
	if rec := p.directives.hotpath[p.lineOf(decl.Pos())]; rec != nil {
		rec.usedAny = true
		return true
	}
	return false
}

func (p *Pass) lineOf(pos token.Pos) int {
	return p.Fset.Position(pos).Line
}

// allowedAt reports whether the analyzer's findings are suppressed on
// the line containing pos, marking the suppressing directive used.
func (p *Pass) allowedAt(name string, pos token.Pos) bool {
	if rec := p.directives.allow[p.lineOf(pos)][name]; rec != nil {
		rec.used[name] = true
		return true
	}
	return false
}

// directive is one parsed //lmovet:... comment.
type directive struct {
	kind string // "allow", "commutative", "hotpath"
	args []string
}

// parseDirective extracts an lmovet directive from raw comment text.
func parseDirective(text string) (directive, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "lmovet:") {
		return directive{}, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, "lmovet:"))
	if len(fields) == 0 {
		return directive{}, false
	}
	// Arguments end at an embedded "//": everything after it is
	// commentary (a justification, or a fixture's // want expectation).
	for i, f := range fields {
		if f == "//" || strings.HasPrefix(f, "//") {
			fields = fields[:i]
			break
		}
	}
	if len(fields) == 0 {
		return directive{}, false
	}
	return directive{kind: fields[0], args: fields[1:]}, true
}

// directiveRecord is one //lmovet:... comment with its usage state:
// whether any analyzer consulted it successfully during a run. The
// directiveaudit analyzer reads these to report stale directives, so
// an index (and the passes over it) must be shared across the
// analyzers of one package — RunAnalyzers arranges that.
type directiveRecord struct {
	pos     token.Pos
	kind    string
	args    []string
	used    map[string]bool // allow: analyzer names that suppressed here
	usedAny bool            // commutative/hotpath: governed something real
}

// directiveIndex maps source lines to the directives that govern them.
// A directive on line L governs line L; a standalone directive comment
// additionally governs line L+1, so it can sit directly above the
// statement it describes.
type directiveIndex struct {
	records     []*directiveRecord
	allow       map[int]map[string]*directiveRecord
	commutative map[int]*directiveRecord
	hotpath     map[int]*directiveRecord
}

func buildDirectiveIndex(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{
		allow:       map[int]map[string]*directiveRecord{},
		commutative: map[int]*directiveRecord{},
		hotpath:     map[int]*directiveRecord{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				rec := &directiveRecord{
					pos: c.Pos(), kind: d.kind, args: d.args,
					used: map[string]bool{},
				}
				idx.records = append(idx.records, rec)
				line := fset.Position(c.Pos()).Line
				for _, l := range []int{line, line + 1} {
					switch d.kind {
					case "allow":
						m := idx.allow[l]
						if m == nil {
							m = map[string]*directiveRecord{}
							idx.allow[l] = m
						}
						for _, a := range d.args {
							m[a] = rec
						}
					case "commutative":
						idx.commutative[l] = rec
					case "hotpath":
						idx.hotpath[l] = rec
					}
				}
			}
		}
	}
	sort.Slice(idx.records, func(i, j int) bool { return idx.records[i].pos < idx.records[j].pos })
	return idx
}

// RunAnalyzers applies the analyzers to one loaded package in order,
// sharing one directive index (so directiveaudit, which must run last,
// sees which //lmovet: comments the earlier analyzers actually
// consulted) and one call graph. The combined findings are returned
// sorted by (position, analyzer, message) with exact duplicates
// removed — two analyzers reporting the identical message at the
// identical position yield one finding, and report order never
// depends on analyzer registration order.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, pkg *Package) ([]Finding, error) {
	idx := buildDirectiveIndex(fset, pkg.Files)
	var out []Finding
	for _, a := range analyzers {
		a := a
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			directives: idx,
			pkg:        pkg,
		}
		pass.Report = func(d Diagnostic) {
			if pass.allowedAt(a.Name, d.Pos) {
				return
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: d.Pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	dedup := out[:0]
	for i, f := range out {
		if i > 0 && f == out[i-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup, nil
}
