package analysis_test

import (
	"sync"
	"testing"

	"repro/internal/analysis"
)

// loadModule loads and type-checks the real module once for the tests
// that inspect it.
var loadModule = func() func(t *testing.T) *analysis.Module {
	var (
		once sync.Once
		mod  *analysis.Module
		err  error
	)
	return func(t *testing.T) *analysis.Module {
		t.Helper()
		once.Do(func() {
			var root string
			if root, err = analysis.FindModuleRoot("."); err == nil {
				mod, err = analysis.LoadModule(root)
			}
		})
		if err != nil {
			t.Fatalf("loading module: %v", err)
		}
		return mod
	}
}()

// TestSuiteCleanOnModule is the regression guard that keeps the tree
// lint-clean: it loads the real module and runs every analyzer with
// the production scoping policy, expecting zero findings. A
// time.Now() slipped into simnet, an unsorted map range in estimate,
// or an allocation on an annotated hot path fails this test (and the
// CI lint job) immediately.
func TestSuiteCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	mod := loadModule(t)
	if len(mod.Pkgs) == 0 {
		t.Fatal("module loader found no packages")
	}
	sawDeterministic := false
	for _, pkg := range mod.Pkgs {
		if analysis.IsDeterministic(pkg.Path) {
			sawDeterministic = true
		}
		// One RunAnalyzers call per package, exactly like cmd/lmovet:
		// the analyzers share a directive index, so directiveaudit (last
		// in Scope's list) sees which directives the others consulted.
		findings, err := analysis.RunAnalyzers(analysis.Scope(pkg.Path), mod.Fset, pkg)
		if err != nil {
			t.Fatalf("suite on %s: %v", pkg.Path, err)
		}
		for _, f := range findings {
			t.Errorf("%s: %s: %s", mod.Fset.Position(f.Pos), f.Analyzer, f.Message)
		}
	}
	if !sawDeterministic {
		t.Error("no deterministic packages were analyzed; policy and loader disagree about import paths")
	}
}
