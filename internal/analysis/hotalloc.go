package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc flags allocation-introducing constructs inside functions
// annotated //lmovet:hotpath — the discrete-event fast path that the
// PR-3 optimization made allocation-free and that vtime's allocation
// tests guard. Directly inside a hot function it
// reports:
//
//   - calls into package fmt (formatting always allocates);
//   - function literals that capture enclosing variables (the capture
//     forces a heap-allocated closure);
//   - passing a non-pointer-shaped concrete value where the callee
//     takes an interface (the conversion boxes onto the heap);
//   - append to a slice declared locally without preallocated
//     capacity (growth reallocates on the hot path).
//
// Interprocedurally, it computes a per-function "allocates" summary
// over the package call graph — a function allocates when its body
// contains one of the constructs above or it calls (transitively,
// within the package) a function that does — and flags any call from
// a hot function to an allocating callee, naming the witness path and
// the root construct. Callees that are themselves //lmovet:hotpath
// are not re-flagged at the call site: their own check covers them.
//
// Allocations that are deliberate (error paths that fire once, cold
// branches) are waved through with //lmovet:allow hotalloc; a
// suppressed construct is excluded from its function's summary too.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation-introducing constructs in (or reachable from) //lmovet:hotpath functions",
	Run:  runHotalloc,
}

// allocSite is one allocation-introducing construct, with a short
// description used when it is reported through a call chain.
type allocSite struct {
	pos  token.Pos
	desc string
}

func runHotalloc(pass *Pass) error {
	cg := pass.CallGraph()

	// Per-function direct summaries, //lmovet:allow hotalloc already
	// applied so a waved-through construct does not poison callers.
	direct := map[*types.Func][]allocSite{}
	hot := map[*types.Func]bool{}
	targets := map[*types.Func]bool{}
	for _, fn := range cg.Functions() {
		fd := cg.Decl(fn)
		sites := directAllocSites(pass, fd)
		kept := sites[:0]
		for _, s := range sites {
			if !pass.allowedAt("hotalloc", s.pos) {
				kept = append(kept, s)
			}
		}
		if len(kept) > 0 {
			direct[fn] = kept
			targets[fn] = true
		}
		if pass.Hotpath(fd) {
			hot[fn] = true
		}
	}
	paths := cg.PathsTo(targets)

	for _, fn := range cg.Functions() {
		if !hot[fn] {
			continue
		}
		fd := cg.Decl(fn)
		// Direct constructs, reported with the original messages.
		reportDirectAllocs(pass, fd)
		// Calls into allocating same-package callees. A callee that is
		// itself hotpath-annotated gets its own direct report instead.
		for _, e := range cg.Callees(fn) {
			if hot[e.Callee] {
				continue
			}
			if _, reaches := paths[e.Callee]; !reaches {
				continue
			}
			root := e.Callee
			for paths[root] != nil {
				root = paths[root].Callee
			}
			site := direct[root][0]
			chain := append([]string{e.Callee.Name()}, cg.Chain(paths, e.Callee)...)
			where := pass.Fset.Position(site.pos)
			pass.Reportf(e.Pos,
				"call to %s allocates (%s at %s:%d); hot path %s must stay allocation-free",
				strings.Join(chain, " → "), site.desc, shortFile(where.Filename), where.Line, fd.Name.Name)
		}
	}
	return nil
}

// shortFile trims a file path to its last two segments, enough to
// identify the site in a diagnostic without dragging the module root
// through every message.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

// reportDirectAllocs reports the allocation constructs written
// directly in a hot function's body, with messages naming the hot
// function (the pre-call-graph behavior, kept stable).
func reportDirectAllocs(pass *Pass, fd *ast.FuncDecl) {
	unprealloc := collectBareSlices(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if capturesVars(pass, fd, v) {
				pass.Reportf(v.Pos(), "closure captures enclosing variables and allocates; hot path %s must stay allocation-free", fd.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, v, unprealloc)
		}
		return true
	})
}

// directAllocSites collects the allocation constructs written directly
// in fd's body as summary entries, without reporting them.
func directAllocSites(pass *Pass, fd *ast.FuncDecl) []allocSite {
	var sites []allocSite
	unprealloc := collectBareSlices(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if capturesVars(pass, fd, v) {
				sites = append(sites, allocSite{v.Pos(), "variable-capturing closure"})
			}
		case *ast.CallExpr:
			sites = appendCallAllocSites(pass, sites, v, unprealloc)
		}
		return true
	})
	return sites
}

// appendCallAllocSites classifies one call expression for the summary:
// fmt calls, growing appends and interface boxing, mirroring
// checkHotCall without reporting.
func appendCallAllocSites(pass *Pass, sites []allocSite, call *ast.CallExpr, unprealloc map[types.Object]bool) []allocSite {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			return append(sites, allocSite{call.Pos(), "fmt." + fn.Name() + " call"})
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				if dst, ok := call.Args[0].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[dst]; obj != nil && unprealloc[obj] {
						sites = append(sites, allocSite{call.Pos(), "append to un-preallocated slice " + dst.Name})
					}
				}
			}
			return sites
		}
	}
	forEachBoxedArg(pass, call, func(arg ast.Expr, at types.Type) {
		sites = append(sites, allocSite{arg.Pos(), "interface boxing of " + at.String()})
	})
	return sites
}

// collectBareSlices finds local slice variables declared with no
// preallocated capacity: `var s []T`, `s := []T{...}`, `s := []T(nil)`.
// make with an explicit length or capacity counts as preallocated.
func collectBareSlices(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if v.Tok.String() != ":=" || len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := v.Rhs[i].(type) {
				case *ast.CompositeLit:
					mark(id)
				case *ast.CallExpr:
					// []T(nil) conversion; make(...) is preallocated.
					if _, isConv := rhs.Fun.(*ast.ArrayType); isConv {
						mark(id)
					}
				}
			}
		}
		return true
	})
	return out
}

// capturesVars reports whether lit references a variable declared in
// the enclosing function outside the literal itself — the condition
// under which the compiler heap-allocates a closure.
func capturesVars(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if obj.Pos() >= fd.Pos() && obj.Pos() < fd.End() &&
			(obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
			captured = true
		}
		return true
	})
	return captured
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, unprealloc map[types.Object]bool) {
	// Package fmt: formatting allocates its result and boxes every
	// argument.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates; hot path %s must stay allocation-free", fn.Name(), fd.Name.Name)
			return
		}
	}

	// Builtin append to a bare local slice.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				if dst, ok := call.Args[0].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[dst]; obj != nil && unprealloc[obj] {
						pass.Reportf(call.Pos(), "append to %s grows an un-preallocated slice; size it with make(..., n) up front", dst.Name)
					}
				}
			}
			return
		}
	}

	// Interface boxing at call boundaries.
	forEachBoxedArg(pass, call, func(arg ast.Expr, at types.Type) {
		pass.Reportf(arg.Pos(), "passing %s to interface parameter boxes it onto the heap; hot path %s must stay allocation-free", at, fd.Name.Name)
	})
}

// forEachBoxedArg invokes f for every argument of call whose
// conversion to an interface parameter heap-allocates.
func forEachBoxedArg(pass *Pass, call *ast.CallExpr, f func(arg ast.Expr, at types.Type)) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.IsNil() {
			continue
		}
		if boxesOnHeap(at.Type) {
			f(arg, at.Type)
		}
	}
}

// boxesOnHeap reports whether converting a value of type t to an
// interface requires a heap allocation. Pointer-shaped values
// (pointers, channels, maps, funcs, unsafe pointers) and interfaces
// store directly in the interface data word.
func boxesOnHeap(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UnsafePointer && b.Kind() != types.UntypedNil
	}
	return true
}
