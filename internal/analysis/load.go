package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path, e.g. "repro/internal/vtime"
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	cg *CallGraph // lazily built by Pass.CallGraph, shared by analyzers
}

// Module is the loaded module: every buildable package, type-checked
// against one shared FileSet.
type Module struct {
	Root string // module root directory (holds go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // dependency order (imports before importers)
}

// FindModuleRoot walks up from dir looking for go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// stdImporter type-checks standard-library dependencies from GOROOT
// source. It is the piece that keeps the loader dependency-free: no
// export data, no go/packages, just the toolchain's own source tree.
func stdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}

// moduleImporter resolves module-internal imports from the packages
// already type-checked and everything else through the source importer.
type moduleImporter struct {
	std    types.Importer
	loaded map[string]*Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.loaded[path]; ok {
		return p.Types, nil
	}
	return im.std.Import(path)
}

// skipDir reports whether a directory should not be scanned for
// packages: VCS metadata, testdata fixtures, and underscore/dot dirs,
// mirroring the go tool's matching rules.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule parses and type-checks every non-test package under the
// module root. Test files are excluded: the determinism invariants
// govern production code, and tests legitimately measure wall time.
func LoadModule(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	mod := &Module{Root: root, Path: modPath, Fset: fset}

	// Pass 1: parse every package directory.
	type parsed struct {
		pkg     *Package
		imports []string
	}
	pending := map[string]*parsed{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		files, perr := parseDir(fset, path)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &parsed{pkg: &Package{Path: imp, Dir: path, Files: files}}
		seen := map[string]bool{}
		for _, f := range files {
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				if strings.HasPrefix(ip, modPath+"/") || ip == modPath {
					if !seen[ip] {
						seen[ip] = true
						p.imports = append(p.imports, ip)
					}
				}
			}
		}
		sort.Strings(p.imports)
		pending[imp] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: type-check in dependency order.
	std := stdImporter(fset)
	im := &moduleImporter{std: std, loaded: map[string]*Package{}}
	var order []string
	for p := range pending {
		order = append(order, p)
	}
	sort.Strings(order) // stable tie-break under the topological visit

	visiting := map[string]bool{}
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := pending[path]
		if !ok || im.loaded[path] != nil {
			return nil
		}
		if visiting[path] {
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		visiting[path] = true
		defer func() { visiting[path] = false }()
		for _, dep := range p.imports {
			if err := visit(dep); err != nil {
				return err
			}
		}
		if err := check(fset, im, p.pkg); err != nil {
			return err
		}
		im.loaded[path] = p.pkg
		mod.Pkgs = append(mod.Pkgs, p.pkg)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return mod, nil
}

// parseDir parses the non-test Go files of one directory, returning
// nil when the directory holds no buildable Go package.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one parsed package in place.
func check(fset *token.FileSet, im types.Importer, pkg *Package) error {
	conf := types.Config{Importer: im}
	info := newInfo()
	tp, err := conf.Check(pkg.Path, fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("analysis: type-check %s: %w", pkg.Path, err)
	}
	pkg.Types = tp
	pkg.Info = info
	return nil
}
