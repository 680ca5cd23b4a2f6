package analysis_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// keptExports names the exported functions and methods under internal/
// that stay although nothing outside tests calls them, each with the
// reason it stays. Keys are "<package under internal/>.<Func>" or
// "<package>.<Type>.<Method>".
var keptExports = map[string]string{
	// The facade's documented API: commperf re-exports these types, so
	// its users call the methods, and the examples need not.
	"mpi.Comm.Barrier":           facadeAPI,
	"mpi.Comm.Bcast":             facadeAPI,
	"mpi.Comm.Gather":            facadeAPI,
	"mpi.Comm.Rank":              facadeAPI,
	"mpi.Comm.Recv":              facadeAPI,
	"mpi.Comm.Scatter":           facadeAPI,
	"mpi.Comm.Send":              facadeAPI,
	"mpi.Comm.World":             facadeAPI,
	"mpi.Rank.Barrier":           facadeAPI,
	"mpi.Rank.CommOf":            "the only constructor of the facade's documented commperf.Comm",
	"mpi.Rank.RecvTimeout":       "the facade's documented deadline receive (commperf.Rank)",
	"mpi.Rank.SendTimeout":       "the facade's documented deadline send (commperf.Rank)",
	"tuned.Tuner.Stats":          "the facade's documented decision counters (commperf.Tuner)",
	"campaign.Outcome.Canonical": "the facade's documented byte-stable campaign output (commperf.CampaignOutcome)",

	// The analyzer test harness: the analyzers' tests are its callers.
	"analysis/analysistest.Run":      "the analyzer test harness",
	"analysis/analysistest.RunSuite": "the analyzer test harness",

	// References the tests compare the production code against.
	"collective.Tree.Validate":  "the structural oracle the tree builders' tests check every shape against",
	"estimate.Memo.Estimations": "the count of shared estimations that experiment's runner test pins from outside package estimate",

	// errors.Is and errors.As call it through an unnamed interface.
	"simnet.CrashError.Unwrap": "lets errors.Is and errors.As reach the engine error a crash wraps",
}

const facadeAPI = "the facade's documented API: commperf.Comm and commperf.Rank re-export the type"

// TestEveryExportHasACaller keeps the module free of test-only API:
// every exported function and method under internal/ must be used by
// non-test code somewhere in the module (bench/, cmd/ and examples/
// included), implement an interface, or carry a reason in keptExports.
// A use inside the function's own declaration (recursion) does not
// count.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	mod := loadModule(t)
	internal := mod.Path + "/internal/"

	// Every use of a function object, with its position, from every
	// package the loader type-checked: exactly the non-test code.
	uses := map[*types.Func][]*ast.Ident{}
	for _, pkg := range mod.Pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				uses[fn] = append(uses[fn], id)
			}
		}
	}
	ifaces := interfaces(mod)

	var unused []string
	kept := map[string]bool{}
	for _, pkg := range mod.Pkgs {
		if !strings.HasPrefix(pkg.Path, internal) {
			continue
		}
		rel := strings.TrimPrefix(pkg.Path, internal)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || !decl.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[decl.Name].(*types.Func)
				name := rel + "." + decl.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := receiverNamed(recv.Type())
					if implementsAny(named, fn.Name(), ifaces) {
						continue
					}
					name = rel + "." + named.Obj().Name() + "." + decl.Name.Name
				}
				if usedOutside(uses[fn], decl) {
					continue
				}
				if _, ok := keptExports[name]; ok {
					kept[name] = true
					continue
				}
				unused = append(unused, name)
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but only tests call it: unexport or delete it, or give keptExports a reason", name)
	}
	for name, reason := range keptExports {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("keptExports[%q] has no reason", name)
		}
		if !kept[name] {
			t.Errorf("keptExports[%q] names no export that lacks a caller; drop the entry", name)
		}
	}
}

// usedOutside reports whether any use lies outside decl's own span.
func usedOutside(ids []*ast.Ident, decl *ast.FuncDecl) bool {
	for _, id := range ids {
		if id.Pos() < decl.Pos() || id.Pos() >= decl.End() {
			return true
		}
	}
	return false
}

// receiverNamed strips the pointer from a method's receiver type.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// interfaces returns every interface a method may implement and so be
// called through without naming it: the module's own named interfaces
// and the standard ones the module satisfies.
func interfaces(mod *analysis.Module) []*types.Interface {
	var out []*types.Interface
	add := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	add(types.Universe.Lookup("error"))
	std := map[string]string{
		"fmt":           "Stringer",
		"encoding/json": "Marshaler",
		"net/http":      "ResponseWriter",
		"go/types":      "Importer",
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if name, ok := std[p.Path()]; ok {
			add(p.Scope().Lookup(name))
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range mod.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			add(scope.Lookup(name))
		}
		visit(pkg.Types)
	}
	return out
}

// implementsAny reports whether T or *T implements an interface that
// declares a method called method.
func implementsAny(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, method); m != nil &&
			(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
