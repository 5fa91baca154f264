// Package callgraph is the interprocedural summary engine under the
// adsmvet analyzers.
//
// The repository's invariants — the allocation-free fault hot path and the
// core lock hierarchy — were originally enforced intra-procedurally, so any
// violation hidden behind one helper call escaped `make vet`. This package
// makes the analyzers see through calls:
//
//   - a per-package call graph with static call resolution plus method-set
//     (class-hierarchy) resolution of interface calls to their in-package
//     implementations;
//   - strongly-connected-component condensation of that graph (Tarjan),
//     so mutually recursive helpers are summarized by a terminating
//     fixpoint rather than unbounded descent;
//   - a bottom-up fixpoint computing one FuncSummary per function:
//     does it allocate (and through which call chain), may it block, and
//     which annotated locks does it transitively acquire.
//
// Summaries cross package boundaries two ways. When a dependency's source
// is loaded (standalone adsmvet, analysistest), its unit is summarized
// recursively through Unit.DepUnits. Under `go vet -vettool` each package
// is checked in isolation, so summaries are serialized into the vetx
// "facts" file cmd/go threads from dependency to dependent
// (Unit.DepBlob). Unknown functions — standard library beyond a small
// built-in table, unresolved dynamic calls — are treated conservatively
// by the noalloc consumer and permissively by the others (documented in
// each analyzer).
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/internal/analysis"
)

// Node is one declared function or method of the package under analysis.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	File *ast.File
	// Edges are the node's call sites in source order. Calls inside nested
	// function literals are excluded — a stored closure runs on its own
	// schedule (and noalloc flags the literal itself) — except literals
	// that are immediately invoked or immediately deferred, whose bodies
	// execute as part of this function.
	Edges []Edge
}

// Edge is one resolved call site.
type Edge struct {
	Call   *ast.CallExpr
	Callee *types.Func
	// Dynamic marks an interface-method call resolved to this concrete
	// implementation by method-set analysis (one Edge per implementation).
	Dynamic bool
}

// Info is the per-package product of the engine: the call graph, the
// annotated lock declarations, and every function summary reachable from
// this package (local ones computed by fixpoint, imported ones loaded
// from dependency units or vetx blobs).
type Info struct {
	Unit  *analysis.Unit
	Nodes []*Node
	// Locks are the //adsm:lock annotated mutex fields of this package.
	Locks map[types.Object]LockDecl

	byFn    map[*types.Func]*Node
	local   map[string]*FuncSummary // keyed by types.Func FullName
	impls   map[string][]*types.Func
	depMemo map[string]*PkgSummary // dependency package summaries
}

// Of returns the engine's Info for the pass's package, building it on
// first use and sharing it between analyzers through the unit cache.
func Of(pass *analysis.Pass) (*Info, error) {
	return Summarize(pass.Unit)
}

// Summarize builds (or returns the cached) Info for a loaded unit,
// summarizing module-local dependency units recursively.
func Summarize(unit *analysis.Unit) (*Info, error) {
	v, err := unit.Cache("callgraph", func() (any, error) {
		return build(unit)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Info), nil
}

func build(unit *analysis.Unit) (*Info, error) {
	info := &Info{
		Unit:    unit,
		byFn:    map[*types.Func]*Node{},
		local:   map[string]*FuncSummary{},
		impls:   implementations(unit),
		depMemo: map[string]*PkgSummary{},
	}
	info.Locks = collectLocks(unit)
	for _, file := range unit.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := unit.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Fn: obj, Decl: fn, File: file}
			if fn.Body != nil {
				n.Edges = info.edges(fn.Body)
			}
			info.Nodes = append(info.Nodes, n)
			info.byFn[obj] = n
		}
	}
	info.fixpoint()
	return info, nil
}

// edges collects the resolved call sites of a function body in source
// order, with InspectInline's function-literal policy.
func (in *Info) edges(body *ast.BlockStmt) []Edge {
	var edges []Edge
	InspectInline(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			edges = append(edges, in.resolve(call)...)
		}
		return true
	})
	return edges
}

// resolve maps one call expression to its callee edges: the static callee
// when the call is direct, or every in-package implementation when the
// callee is an interface method (method-set resolution).
func (in *Info) resolve(call *ast.CallExpr) []Edge {
	fn := analysis.CalleeFunc(in.Unit.TypesInfo, call)
	if fn == nil {
		return nil // builtin, conversion, or func-value call
	}
	fn = origin(fn)
	if !isInterfaceMethod(fn) {
		return []Edge{{Call: call, Callee: fn}}
	}
	var edges []Edge
	for _, impl := range in.impls[fn.Name()] {
		if implementsMethod(impl, fn) {
			edges = append(edges, Edge{Call: call, Callee: impl, Dynamic: true})
		}
	}
	if len(edges) == 0 {
		// No in-package implementation: keep the abstract callee so
		// consumers can see an unresolvable dynamic call.
		edges = []Edge{{Call: call, Callee: fn, Dynamic: true}}
	}
	return edges
}

// Callees resolves one call expression on demand (for analyzers walking
// regions the graph excludes, e.g. stored closures).
func (in *Info) Callees(call *ast.CallExpr) []Edge {
	return in.resolve(call)
}

// implementations indexes the package's concrete methods by name, for
// method-set resolution of interface calls.
func implementations(unit *analysis.Unit) map[string][]*types.Func {
	impls := map[string][]*types.Func{}
	scope := unit.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if types.IsInterface(named.Underlying()) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			impls[m.Name()] = append(impls[m.Name()], m)
		}
	}
	return impls
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// implementsMethod reports whether concrete method impl satisfies the
// interface method iface (same name, receiver type implements the
// interface).
func implementsMethod(impl, iface *types.Func) bool {
	if impl.Name() != iface.Name() {
		return false
	}
	isig, ok := iface.Type().(*types.Signature)
	if !ok || isig.Recv() == nil {
		return false
	}
	itf, ok := isig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	csig, ok := impl.Type().(*types.Signature)
	if !ok || csig.Recv() == nil {
		return false
	}
	recv := csig.Recv().Type()
	return types.Implements(recv, itf) || types.Implements(types.NewPointer(recv), itf)
}

// origin canonicalizes generic instantiations to their declaration.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// Display renders a function for diagnostics: "core.handleFault" or
// "core.(*Manager).handleFault".
func Display(fn *types.Func) string {
	name := fn.Name()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return fmt.Sprintf("%s(%s%s).%s", pkg, ptr, named.Obj().Name(), name)
		}
	}
	return pkg + name
}

// short renders a position as "file.go:line" (base name only, so chains
// stay readable and testdata-stable across absolute paths).
func short(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// Frame renders one call-chain frame for diagnostics.
func (in *Info) Frame(fn *types.Func, at token.Pos) SummaryFrame {
	return SummaryFrame{Name: Display(fn), Pos: short(in.Unit.Fset, at)}
}
