package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Vtimeblock flags real (host-level) blocking primitives inside code
// that runs in virtual-time process context. Process bodies run as
// coroutines of the one goroutine that calls Engine.Run, so a body that
// parks on a real sync.Mutex, waits on a sync.WaitGroup, sends or
// receives on an unbuffered channel, or calls time.Sleep blocks the
// whole engine — the virtual clock stops and the simulation deadlocks
// (or, worse, times depend on the host scheduler).
//
// Context is seeded from spawn and scheduling call sites —
// Engine.Go(name, body) and Engine.At(t, fn) on a vtime engine — and
// propagated transitively through the package call graph: every
// same-package function reachable from a seeded body runs in proc
// context, however deep the call chain. Diagnostics in
// transitively reached functions name the chain from the proc root.
// The vtime kernel itself is outside the analyzer's Scope: its
// coroutine switches are the mechanism the invariant protects, and the
// mutex on its idle-worker list is taken by Run only, never in process
// context.
var Vtimeblock = &Analyzer{
	Name: "vtimeblock",
	Doc:  "flag real blocking primitives reachable from vtime process context",
	Run:  runVtimeblock,
}

// vtimeSeedMethods are the vtime.Engine methods whose function argument
// executes inside the virtual-time universe.
var vtimeSeedMethods = map[string]int{ // method name -> func-arg index
	"Go": 1,
	"At": 1,
}

// blockingSyncMethods are methods of package sync that park the calling
// goroutine.
var blockingSyncMethods = map[string]map[string]bool{
	"Mutex":     {"Lock": true},
	"RWMutex":   {"Lock": true, "RLock": true},
	"WaitGroup": {"Wait": true},
	"Cond":      {"Wait": true},
	"Once":      {"Do": true},
}

// procContext is one body known to execute in vtime proc context: a
// seeded function literal or declaration, or a declaration reached
// through the call graph. chain names the call path from the seed
// (empty for seeds themselves).
type procContext struct {
	body  ast.Node
	chain []string
}

func runVtimeblock(pass *Pass) error {
	cg := pass.CallGraph()

	// Seed pass: bodies handed to Engine.Go / Engine.At.
	var contexts []procContext
	inContext := map[ast.Node]bool{}
	reached := map[*types.Func]bool{}
	addSeedDecl := func(fn *types.Func) {
		if fd := cg.Decl(fn); fd != nil && !inContext[fd] {
			inContext[fd] = true
			reached[fn] = true
			contexts = append(contexts, procContext{body: fd})
		}
	}
	var addSeed func(arg ast.Expr)
	addSeed = func(arg ast.Expr) {
		switch a := arg.(type) {
		case *ast.FuncLit:
			if !inContext[a] {
				inContext[a] = true
				contexts = append(contexts, procContext{body: a})
			}
		case *ast.Ident:
			if fn, ok := pass.TypesInfo.Uses[a].(*types.Func); ok {
				addSeedDecl(fn)
			}
		case *ast.SelectorExpr:
			addSeed(a.Sel)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !isVtimePkg(fn.Pkg().Path()) {
				return true
			}
			argIdx, ok := vtimeSeedMethods[fn.Name()]
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
				return true
			}
			addSeed(call.Args[argIdx])
			return true
		})
	}

	// Transitive propagation over the package call graph: everything a
	// seeded body calls, and everything those functions call, also runs
	// in proc context. Worklist BFS; the chain records the first (and
	// therefore shortest-by-discovery) witness path for diagnostics.
	var work []procContext
	work = append(work, contexts...)
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		var edges []CallEdge
		if fd, ok := cur.body.(*ast.FuncDecl); ok {
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				edges = cg.Callees(fn)
			}
		} else {
			edges = cg.CalleesIn(cur.body)
		}
		for _, e := range edges {
			if reached[e.Callee] {
				continue
			}
			fd := cg.Decl(e.Callee)
			if fd == nil {
				continue
			}
			reached[e.Callee] = true
			inContext[fd] = true
			next := procContext{
				body:  fd,
				chain: append(append([]string{}, cur.chain...), e.Callee.Name()),
			}
			contexts = append(contexts, next)
			work = append(work, next)
		}
	}

	// Check bodies in source order so report order never depends on
	// discovery order (RunAnalyzers sorts too; this keeps the walk
	// itself deterministic).
	sort.Slice(contexts, func(i, j int) bool { return contexts[i].body.Pos() < contexts[j].body.Pos() })
	for _, c := range contexts {
		checkVtimeContext(pass, c)
	}
	return nil
}

// isVtimePkg matches the simulator kernel package both in the real
// module (repro/internal/vtime) and in test fixtures (vtime).
func isVtimePkg(path string) bool {
	return path == "vtime" || strings.HasSuffix(path, "/vtime")
}

// via renders the call chain suffix of a diagnostic in a transitively
// reached function ("" for directly seeded bodies).
func (c procContext) via() string {
	if len(c.chain) == 0 {
		return ""
	}
	return " (reached from a vtime proc body via " + strings.Join(c.chain, " → ") + ")"
}

// checkVtimeContext walks one proc-context body and reports real
// blocking constructs. Nested function literals are included: they
// execute under the same process unless handed back to the engine,
// and the seed pass has already classified those.
func checkVtimeContext(pass *Pass, c procContext) {
	suffix := c.via()
	ast.Inspect(c.body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(v.Pos(), "real channel send in vtime proc context blocks the virtual clock; use vtime.Cond/Resource%s", suffix)
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				pass.Reportf(v.Pos(), "real channel receive in vtime proc context blocks the virtual clock; use vtime.Cond/Resource%s", suffix)
			}
		case *ast.SelectStmt:
			pass.Reportf(v.Pos(), "select over real channels in vtime proc context blocks the virtual clock%s", suffix)
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[v.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(v.Pos(), "range over a real channel in vtime proc context blocks the virtual clock%s", suffix)
				}
			}
		case *ast.CallExpr:
			checkVtimeCall(pass, v, suffix)
		}
		return true
	})
}

func checkVtimeCall(pass *Pass, call *ast.CallExpr, suffix string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if fn.Pkg().Path() == "time" && sig != nil && sig.Recv() == nil && fn.Name() == "Sleep" {
		pass.Reportf(call.Pos(), "time.Sleep in vtime proc context stalls the host goroutine, not virtual time; use Proc.Sleep%s", suffix)
		return
	}
	if fn.Pkg().Path() != "sync" || sig == nil || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	if methods := blockingSyncMethods[named.Obj().Name()]; methods[fn.Name()] {
		pass.Reportf(call.Pos(),
			"sync.%s.%s in vtime proc context parks the dispatcher goroutine and deadlocks the virtual clock%s",
			named.Obj().Name(), fn.Name(), suffix)
	}
}
