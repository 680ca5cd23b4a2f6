package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallGraph is the package-level static call graph the interprocedural
// analyzers share (vtimeblock's transitive proc-context propagation,
// hotalloc's "allocates" summaries, snapshotmut's publication
// summaries, poolreuse's release-function recognition). It is built
// once per package, lazily, and cached on the Package — every analyzer
// that asks a Pass for it sees the same graph.
//
// Nodes are the package's declared functions and methods (anything
// with a *types.Func and a body). Edges are static calls: a direct
// call to a package function, a method call on a concrete receiver,
// and — the method-set resolution — a call through an interface
// method, resolved to every concrete type declared in this package
// whose method set satisfies the interface. Calls through function
// values, and calls into other packages, are not edges: the graph is
// deliberately package-local, matching the per-package Pass contract.
type CallGraph struct {
	fns   []*types.Func // declared functions, source order
	decls map[*types.Func]*ast.FuncDecl
	out   map[*types.Func][]CallEdge

	pass *Pass
	// impls indexes the package's concrete methods by name, for
	// interface-method resolution: name -> methods with that name.
	impls map[string][]*types.Func
}

// CallEdge is one static call: Caller invokes Callee at Pos. For a
// call resolved through an interface method, one edge per satisfying
// concrete method is produced, all at the same position.
type CallEdge struct {
	Caller *types.Func
	Callee *types.Func
	Pos    token.Pos
}

// CallGraph returns the package's call graph, building it on first
// use. The graph is shared by every analyzer run on the package.
func (p *Pass) CallGraph() *CallGraph {
	if p.pkg != nil && p.pkg.cg != nil {
		return p.pkg.cg
	}
	g := buildCallGraph(p)
	if p.pkg != nil {
		p.pkg.cg = g
	}
	return g
}

func buildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		decls: map[*types.Func]*ast.FuncDecl{},
		out:   map[*types.Func][]CallEdge{},
		pass:  pass,
		impls: map[string][]*types.Func{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.fns = append(g.fns, obj)
			g.decls[obj] = fd
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				g.impls[obj.Name()] = append(g.impls[obj.Name()], obj)
			}
		}
	}
	sort.Slice(g.fns, func(i, j int) bool {
		return g.decls[g.fns[i]].Pos() < g.decls[g.fns[j]].Pos()
	})
	for _, fn := range g.fns {
		g.out[fn] = g.edgesIn(fn, g.decls[fn].Body)
	}
	return g
}

// Functions returns the declared functions in source order.
func (g *CallGraph) Functions() []*types.Func { return g.fns }

// Decl returns fn's declaration, or nil when fn is not declared (with
// a body) in this package.
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Callees returns fn's outgoing static call edges in call-site order.
func (g *CallGraph) Callees(fn *types.Func) []CallEdge { return g.out[fn] }

// CalleesIn resolves the static same-package call edges inside an
// arbitrary body (typically a function literal handed to a scheduling
// call), attributed to no caller. Nested function literals are
// included: their calls execute under the same dynamic context the
// analyzers track.
func (g *CallGraph) CalleesIn(body ast.Node) []CallEdge {
	return g.edgesIn(nil, body)
}

func (g *CallGraph) edgesIn(caller *types.Func, body ast.Node) []CallEdge {
	var edges []CallEdge
	seen := map[*types.Func]bool{}
	add := func(callee *types.Func, pos token.Pos) {
		if callee == nil || g.decls[callee] == nil || seen[callee] {
			return
		}
		seen[callee] = true
		edges = append(edges, CallEdge{Caller: caller, Callee: callee, Pos: pos})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var callee *types.Func
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			callee, _ = g.pass.TypesInfo.Uses[fun].(*types.Func)
		case *ast.SelectorExpr:
			callee, _ = g.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		}
		if callee == nil || callee.Pkg() != g.pass.Pkg {
			return true
		}
		if impls := g.resolveInterface(callee); impls != nil {
			for _, m := range impls {
				add(m, call.Pos())
			}
			return true
		}
		add(callee, call.Pos())
		return true
	})
	return edges
}

// resolveInterface resolves a call through an interface method to the
// concrete methods of this package's types that satisfy the interface,
// using the type-checker's method sets. Returns nil when callee is not
// an interface method.
func (g *CallGraph) resolveInterface(callee *types.Func) []*types.Func {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, m := range g.impls[callee.Name()] {
		recv := m.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			out = append(out, m)
		}
	}
	return out
}

// PathsTo is the summary-propagation primitive: given target functions
// that directly exhibit a property (they allocate, they publish a
// pointer, ...), it computes for every function that can reach a
// target the first call edge of one such path. Targets themselves map
// to nil. Iteration is in source order with call-site-ordered edges,
// so the chosen witness path is deterministic.
//
// Callers reconstruct a full witness chain by following the returned
// edges: fn -> edge.Callee -> paths[edge.Callee] -> ... until a nil
// edge marks a target.
func (g *CallGraph) PathsTo(targets map[*types.Func]bool) map[*types.Func]*CallEdge {
	paths := map[*types.Func]*CallEdge{}
	// Seeding only writes the fixed nil marker per target.
	//lmovet:commutative
	for fn := range targets {
		if g.decls[fn] != nil {
			paths[fn] = nil
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.fns {
			if _, done := paths[fn]; done {
				continue
			}
			for i := range g.out[fn] {
				e := g.out[fn][i]
				if _, reaches := paths[e.Callee]; reaches {
					paths[fn] = &e
					changed = true
					break
				}
			}
		}
	}
	return paths
}

// Chain renders the witness path from fn toward a PathsTo target as
// the called function names, e.g. ["helper", "leaf"]. fn itself is
// not included; a target maps to an empty chain.
func (g *CallGraph) Chain(paths map[*types.Func]*CallEdge, fn *types.Func) []string {
	var names []string
	for e := paths[fn]; e != nil; e = paths[e.Callee] {
		names = append(names, e.Callee.Name())
		if len(names) > len(g.fns) { // cycle guard; cannot happen with well-formed paths
			break
		}
	}
	return names
}
