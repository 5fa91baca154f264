package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// InspectInline visits the nodes of a function body that execute as part
// of that function: like ast.Inspect, but function literals are descended
// into only when they run inline (immediately invoked, or immediately
// deferred — `defer func(){...}()` executes on this function's exit).
// Goroutine bodies are skipped; their arguments are still evaluated here.
func InspectInline(root ast.Node, f func(ast.Node) bool) {
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if !f(n) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a stored closure runs on its own schedule
		case *ast.GoStmt:
			if _, ok := n.Call.Fun.(*ast.FuncLit); !ok {
				ast.Inspect(n.Call.Fun, walk)
			}
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk)
				for _, arg := range n.Call.Args {
					ast.Inspect(arg, walk)
				}
				return false
			}
			return true // `defer x.M()` runs at function exit: inline
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk)
				for _, arg := range n.Args {
					ast.Inspect(arg, walk)
				}
				return false
			}
			return true
		}
		return true
	}
	ast.Inspect(root, walk)
}

// fixpoint computes a FuncSummary for every local node: Tarjan SCC
// condensation of the intra-package call graph, then bottom-up transfer
// in reverse topological order, iterating inside each SCC until the
// component's summaries stop changing. The transfer is monotone — a fact,
// once found, stays, and its witness chain only gets shorter (the nearest
// witness wins) — so a component settles within len(scc)+1 passes, as a
// shortest-path relaxation does; the cap only guards against a transfer
// that breaks that. TestFixpointMatchesNaiveIteration checks both.
func (in *Info) fixpoint() {
	for _, n := range in.Nodes {
		in.local[n.Fn.FullName()] = in.baseSummary(n)
	}
	for _, scc := range in.sccs() {
		maxIter := len(scc)*2 + 2
		for iter := 0; iter < maxIter; iter++ {
			changed := false
			for _, n := range scc {
				key := n.Fn.FullName()
				next := in.summarizeNode(n)
				if !reflect.DeepEqual(next, in.local[key]) {
					in.local[key] = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// sccs returns the strongly connected components of the local call graph
// in reverse topological order: every component is emitted after all
// components it calls into.
func (in *Info) sccs() [][]*Node {
	index := map[*Node]int{}
	lowlink := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	var out [][]*Node
	next := 0

	localCallees := func(n *Node) []*Node {
		var cs []*Node
		for _, e := range n.Edges {
			if c := in.byFn[e.Callee]; c != nil {
				cs = append(cs, c)
			}
		}
		return cs
	}

	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		index[n] = next
		lowlink[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, c := range localCallees(n) {
			if _, seen := index[c]; !seen {
				strongconnect(c)
				if lowlink[c] < lowlink[n] {
					lowlink[n] = lowlink[c]
				}
			} else if onStack[c] && index[c] < lowlink[n] {
				lowlink[n] = index[c]
			}
		}
		if lowlink[n] == index[n] {
			var scc []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, n := range in.Nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return out
}

// baseSummary seeds a node's summary with its declaration-level facts
// (annotations) before the fixpoint folds in body and callee facts, so
// mutually recursive functions see each other optimistically.
func (in *Info) baseSummary(n *Node) *FuncSummary {
	fset := in.Unit.Fset
	s := &FuncSummary{}
	_, s.NoAlloc = analysis.FuncDirective(fset, n.File, n.Decl, "noalloc")
	_, s.Cold = analysis.FuncDirective(fset, n.File, n.Decl, "cold")
	if s.Cold {
		s.Allocates = true
		s.AllocWhat = "//adsm:cold function allocates by design"
		s.AllocPos = short(fset, n.Decl.Pos())
	}
	if _, blocking := analysis.FuncDirective(fset, n.File, n.Decl, "blocking"); blocking {
		s.Blocks = true
		s.BlockWhat = "declared //adsm:blocking"
		s.BlockPos = short(fset, n.Decl.Pos())
	}
	return s
}

// summarizeNode computes one node's full summary from its annotations,
// its body, and the current summaries of its callees.
func (in *Info) summarizeNode(n *Node) *FuncSummary {
	s := in.baseSummary(n)
	if n.Decl.Body == nil {
		return s
	}
	in.allocFacts(n, s)
	in.blockFacts(n, s)
	in.lockFacts(n, s)
	return s
}

// allocFacts: a function allocates if its own body contains an allocating
// construct, or it calls a callee that (transitively) allocates, or it
// calls something whose behavior is unknown. //adsm:noalloc functions are
// trusted alloc-free here — violations are reported at their definition
// by the noalloc analyzer, not propagated to every caller. The witness is
// the nearest one: the shortest chain, the first call in source order on a
// tie.
func (in *Info) allocFacts(n *Node, s *FuncSummary) {
	if s.NoAlloc || s.Cold {
		return
	}
	if found := AllocWalk(in.Unit.TypesInfo, n.Decl.Body); len(found) > 0 {
		s.Allocates = true
		s.AllocWhat = found[0].What
		s.AllocPos = short(in.Unit.Fset, found[0].Pos)
		return
	}
	for _, e := range n.Edges {
		if obj, _ := LockOp(in.Unit.TypesInfo, e.Call); obj != nil {
			continue // sync mutex ops are alloc-free
		}
		cs := in.Summary(e.Callee)
		what, pos, chain := "", "", []SummaryFrame(nil)
		switch {
		case cs == nil:
			what, pos = unknownCallWhat(e.Callee), short(in.Unit.Fset, e.Call.Pos())
		case cs.Allocates:
			what, pos, chain = cs.AllocWhat, cs.AllocPos, cs.AllocChain
		default:
			continue
		}
		if s.Allocates && len(chain) >= len(s.AllocChain)-1 {
			continue
		}
		s.Allocates = true
		s.AllocWhat = what
		s.AllocPos = pos
		s.AllocChain = PrependFrame(in.Frame(e.Callee, e.Call.Pos()), chain)
	}
}

// blockFacts: a function may block if its body performs a channel
// operation, or a callee (transitively) blocks; the nearest witness wins,
// as in allocFacts.
func (in *Info) blockFacts(n *Node, s *FuncSummary) {
	if s.Blocks {
		return // declared //adsm:blocking
	}
	if what, pos, ok := directBlock(in.Unit.TypesInfo, n.Decl.Body); ok {
		s.Blocks = true
		s.BlockWhat = what
		s.BlockPos = short(in.Unit.Fset, pos)
		return
	}
	for _, e := range n.Edges {
		cs := in.Summary(e.Callee)
		if cs == nil || !cs.Blocks || s.Blocks && len(cs.BlockChain) >= len(s.BlockChain)-1 {
			continue
		}
		s.Blocks = true
		s.BlockWhat = cs.BlockWhat
		s.BlockPos = cs.BlockPos
		s.BlockChain = PrependFrame(in.Frame(e.Callee, e.Call.Pos()), cs.BlockChain)
	}
}

// directBlock finds the first potentially-blocking channel operation in
// the body: send, receive, select, or range over a channel.
func directBlock(info *types.Info, body *ast.BlockStmt) (what string, pos token.Pos, ok bool) {
	InspectInline(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			what, pos, ok = "channel send", n.Pos(), true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what, pos, ok = "channel receive", n.Pos(), true
			}
		case *ast.SelectStmt:
			what, pos, ok = "select", n.Pos(), true
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					what, pos, ok = "range over channel", n.Pos(), true
				}
			}
		}
		return !ok
	})
	return what, pos, ok
}

// lockFacts: the annotated locks this function may acquire — its own
// acquire operations plus everything its callees acquire, each lock once,
// with its nearest acquisition as in allocFacts, sorted by name.
func (in *Info) lockFacts(n *Node, s *FuncSummary) {
	at := map[string]int{} // lock name -> index in s.Acquires
	add := func(u LockUse) {
		i, ok := at[u.Name]
		switch {
		case !ok:
			at[u.Name] = len(s.Acquires)
			s.Acquires = append(s.Acquires, u)
		case len(u.Chain) < len(s.Acquires[i].Chain):
			s.Acquires[i] = u
		}
	}
	for _, e := range n.Edges {
		if obj, op := LockOp(in.Unit.TypesInfo, e.Call); obj != nil {
			if decl, annotated := in.Locks[obj]; annotated && isAcquireOp(op) {
				add(LockUse{Name: decl.Name, Level: decl.Level, Nowait: decl.Nowait,
					Pos: short(in.Unit.Fset, e.Call.Pos())})
			}
			continue
		}
		cs := in.Summary(e.Callee)
		if cs == nil {
			continue
		}
		frame := in.Frame(e.Callee, e.Call.Pos())
		for _, u := range cs.Acquires {
			add(LockUse{Name: u.Name, Level: u.Level, Nowait: u.Nowait, Pos: u.Pos,
				Chain: PrependFrame(frame, u.Chain)})
		}
	}
	// By name: an order of discovery would depend on where the iteration
	// entered a cycle.
	slices.SortFunc(s.Acquires, func(a, b LockUse) int { return strings.Compare(a.Name, b.Name) })
}
