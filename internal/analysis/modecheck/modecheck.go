// Package modecheck is the vet-time analyzer of the gmac host contract.
//
// ADSM keeps memory coherent only at kernel call and return (Gelado et al.,
// ASPLOS 2010, §3.1); interposed memcpy/memset/read/write (§4.4) are host
// accesses like any other; and an allocation's AccessMode is a promise about
// host behaviour for the object's whole lifetime. The runtime enforces all
// of it, but only on the inputs that happen to execute. modecheck moves the
// common failure shapes to `make vet`:
//
//   - a host write (HostWrite, Memset, MemcpyToShared, MemcpyShared dst,
//     ReadFile, or a kernel Call annotated Writes) reaching a pointer
//     allocated with gmac.Mode(gmac.ReadOnly): once sealed at its first
//     kernel release the object rejects it with ErrModeViolation;
//   - a host read (HostRead, MemcpyFromShared, MemcpyShared src, WriteFile)
//     of a pointer allocated gmac.Mode(gmac.WriteOnly) before any write has
//     populated it;
//   - a host read of an Async() kernel's output before Sync: after a call
//     annotated Writes(p...) the reads of those pointers, after an
//     unannotated async call every read;
//   - a Safe(p) device address used after a later Call, which may have
//     migrated the object.
//
// Which method reads or writes which gmac.Ptr argument is the callgraph
// engine's one host-access table, and helper summaries carry the same
// effects, so an access buried two helpers deep — or in a sibling package —
// is flagged at the outer call with the chain down to it. Every function
// and function literal is checked on its own, in source order. A pointer's
// mode is followed from its `p, err := s.Alloc(...)` site, and that tracking
// stops silently as soon as the pointer is reassigned, aliased, taken by
// address, returned, or passed to a function the engine has no summary for.
// Sync and Call are barriers for every session the function uses: sessions
// are not told apart.
package modecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the modecheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "modecheck",
	Doc:  "flag host accesses that break the gmac contract: ReadOnly/WriteOnly modes, async reads before Sync, stale Safe pointers",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	info, err := callgraph.Of(pass)
	if err != nil {
		return err
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				c := &collector{pass: pass, info: info}
				c.visit(body, false)
				process(pass, c.events)
			}
			return true
		})
	}
	return nil
}

type evKind int

const (
	evDefine evKind = iota // p, err := s.Alloc(..., gmac.Mode(...))
	evSafe                 // d, err := s.Safe(p): valid until the next Call
	evAccess               // host write/read through a gmac method or helper
	evUse                  // the pointer's value is read, with no host access
	evKill                 // read, and mode tracking ends: aliased, escaped
	evAssign               // the pointer variable is overwritten
	evCall                 // s.Call(kernel, args, opts...)
	evSync                 // s.Sync()
)

// event is one contract-relevant occurrence in source order.
type event struct {
	pos       token.Pos
	kind      evKind
	obj       types.Object // the pointer variable (nil for a non-identifier access)
	mode      string       // evDefine: "ReadOnly", "WriteOnly", or ""
	name      string       // evAccess: the argument, as source text
	write     bool         // evAccess
	what      string       // evAccess: underlying method name
	accessPos string       // evAccess: where the underlying access sits
	chain     []callgraph.SummaryFrame
	async     bool           // evCall
	writes    []types.Object // evCall: Writes/WriteOnlyHint pointers
}

// collector walks one function body emitting events in evaluation order.
// Nested function literals run on their own schedule: they are checked as
// functions of their own, not as part of this one.
type collector struct {
	pass   *analysis.Pass
	info   *callgraph.Info
	events []event
}

func (c *collector) add(e event) {
	c.events = append(c.events, e)
}

// visit walks n. inCall marks positions inside call arguments, where bare
// pointer identifiers are accounted for by call classification instead of
// the conservative alias kill.
func (c *collector) visit(n ast.Node, inCall bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		return
	case *ast.GoStmt:
		// The goroutine's accesses are unordered against ours: stop
		// tracking any pointer it captures.
		c.killAllUnder(n)
		return
	case *ast.DeferStmt:
		// Deferred work runs at returns, out of line with this walk; a
		// deferred Sync in particular does NOT order before earlier
		// statements. Stop tracking pointers it touches.
		c.killAllUnder(n)
		return
	case *ast.AssignStmt:
		c.assign(n)
		return
	case *ast.CallExpr:
		c.call(n)
		return
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && c.isPtrIdent(id) {
				c.add(event{pos: n.Pos(), kind: evKill, obj: c.pass.TypesInfo.Uses[id]})
				return
			}
		}
	case *ast.Ident:
		if !inCall && c.isPtrIdent(n) {
			// Bare use outside a call: alias, comparison, return value.
			c.add(event{pos: n.Pos(), kind: evKill, obj: c.pass.TypesInfo.Uses[n]})
		}
		return
	}
	c.children(n, inCall)
}

// children visits n's direct children with the same context.
func (c *collector) children(n ast.Node, inCall bool) {
	ast.Inspect(n, func(ch ast.Node) bool {
		if ch == n {
			return true
		}
		c.visit(ch, inCall)
		return false
	})
}

// killAllUnder emits a kill for every tracked-pointer identifier in the
// subtree (conservative escape).
func (c *collector) killAllUnder(n ast.Node) {
	ast.Inspect(n, func(ch ast.Node) bool {
		if id, ok := ch.(*ast.Ident); ok && c.isPtrIdent(id) {
			c.add(event{pos: id.Pos(), kind: evKill, obj: c.pass.TypesInfo.Uses[id]})
		}
		return true
	})
}

// assign handles the Alloc and Safe defines, and marks every other
// pointer assigned to as overwritten.
func (c *collector) assign(n *ast.AssignStmt) {
	for _, rhs := range n.Rhs {
		c.visit(rhs, false)
	}
	if obj, kind, mode := c.define(n); obj != nil {
		c.add(event{pos: n.Pos(), kind: kind, obj: obj, mode: mode})
		return
	}
	for _, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if c.isPtrIdent(id) && n.Tok == token.ASSIGN {
				c.add(event{pos: id.Pos(), kind: evAssign, obj: c.pass.TypesInfo.Uses[id]})
			}
			continue
		}
		c.visit(lhs, false)
	}
}

// define recognizes `p, err := sess.Alloc(size, opts...)`, returning p's
// object with evDefine and the declared mode ("" when no gmac.Mode option
// is present), and `d, err := sess.Safe(p)`, returning d with evSafe.
func (c *collector) define(n *ast.AssignStmt) (types.Object, evKind, string) {
	if len(n.Rhs) != 1 || len(n.Lhs) == 0 {
		return nil, 0, ""
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, 0, ""
	}
	kind := evDefine
	switch callgraph.GmacMethod(c.pass.TypesInfo, call) {
	case "Alloc":
	case "Safe":
		kind = evSafe
	default:
		return nil, 0, ""
	}
	id, ok := n.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, 0, ""
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil || !c.info.IsGmacPtr(obj.Type()) {
		return nil, 0, ""
	}
	if kind == evSafe {
		return obj, evSafe, ""
	}
	return obj, evDefine, c.allocModeOf(call)
}

// allocModeOf extracts the gmac.Mode(...) option's constant, if any.
func (c *collector) allocModeOf(call *ast.CallExpr) string {
	for _, arg := range call.Args {
		oc, ok := arg.(*ast.CallExpr)
		if !ok || callgraph.GmacFunc(c.pass.TypesInfo, oc) != "Mode" || len(oc.Args) != 1 {
			continue
		}
		var sel *ast.Ident
		switch a := ast.Unparen(oc.Args[0]).(type) {
		case *ast.SelectorExpr:
			sel = a.Sel
		case *ast.Ident:
			sel = a
		}
		if sel == nil {
			continue
		}
		switch sel.Name {
		case "ReadOnly", "ModeReadOnly":
			return "ReadOnly"
		case "WriteOnly", "ModeWriteOnly":
			return "WriteOnly"
		}
	}
	return ""
}

// call classifies one call in evaluation order: its arguments first
// (pointer uses, and escapes into callees without a summary), then its
// host accesses (direct gmac methods or helper summaries), then its effect
// as a kernel launch or a Sync barrier.
func (c *collector) call(call *ast.CallExpr) {
	info := c.pass.TypesInfo
	// A pointer passed to a callee without a summary may be written, read
	// or retained there: stop tracking it. Callees the engine does know
	// (module-local helpers, the gmac API itself) have their effects
	// applied below.
	neutral := false
	if fn := analysis.CalleeFunc(info, call); fn != nil {
		neutral = fn.Pkg() != nil && fn.Pkg().Name() == "gmac" || c.info.Summary(fn) != nil
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && c.isPtrIdent(id) {
			kind := evKill
			if neutral {
				kind = evUse
			}
			c.add(event{pos: arg.Pos(), kind: kind, obj: info.Uses[id]})
			continue
		}
		c.visit(arg, true)
	}

	for _, eff := range c.info.PtrEffects(call) {
		var obj types.Object
		if id, ok := ast.Unparen(eff.Arg).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
		c.add(event{pos: call.Pos(), kind: evAccess, obj: obj, name: types.ExprString(eff.Arg),
			write: eff.Write, what: eff.What, accessPos: eff.Pos, chain: eff.Chain})
	}

	switch callgraph.GmacMethod(info, call) {
	case "Sync":
		if len(call.Args) == 0 {
			c.add(event{pos: call.Pos(), kind: evSync})
		}
	case "Call":
		c.add(c.kernelCall(call))
	}
}

// kernelCall reads sess.Call(kernel, args, opts...)'s options: Async(),
// and the pointers a Writes(...) or WriteOnlyHint(...) option declares
// kernel-written.
func (c *collector) kernelCall(call *ast.CallExpr) event {
	ev := event{pos: call.Pos(), kind: evCall}
	for _, arg := range call.Args {
		oc, ok := arg.(*ast.CallExpr)
		if !ok {
			continue
		}
		switch callgraph.GmacFunc(c.pass.TypesInfo, oc) {
		case "Async":
			ev.async = true
		case "Writes", "WriteOnlyHint":
			for _, wa := range oc.Args {
				if id, ok := ast.Unparen(wa).(*ast.Ident); ok && c.isPtrIdent(id) {
					ev.writes = append(ev.writes, c.pass.TypesInfo.Uses[id])
				}
			}
		}
	}
	return ev
}

// isPtrIdent reports whether id names a gmac.Ptr-typed object.
func (c *collector) isPtrIdent(id *ast.Ident) bool {
	obj := c.pass.TypesInfo.Uses[id]
	return obj != nil && c.info.IsGmacPtr(obj.Type())
}

// state is the mode-tracking record of one allocated pointer.
type state struct {
	mode     string
	allocPos string
	wrote    bool // some write (host or kernel) has reached it
}

// process replays one function's events in source order, reporting
// contract violations.
func process(pass *analysis.Pass, events []event) {
	shortPos := func(p token.Pos) string {
		pos := pass.Fset.Position(p)
		return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
	}
	vars := map[types.Object]*state{}
	safe := map[types.Object]string{}    // Safe() results: the Call that staled each ("" while fresh)
	asyncAt := map[types.Object]string{} // pointers a pending Async() call declared written
	asyncAll := ""                       // a pending unannotated Async() call: every read is suspect

	// use reports a stale Safe pointer the first time it is read.
	use := func(obj types.Object, pos token.Pos) {
		if at := safe[obj]; at != "" {
			pass.Reportf(pos,
				"%s holds a Safe() pointer acquired before the Call at %s; kernel launches may migrate the object — re-acquire with Safe()",
				obj.Name(), at)
			delete(safe, obj)
		}
	}
	for _, e := range events {
		switch e.kind {
		case evDefine, evSafe, evAssign:
			// A new value: nothing known about the old one carries over.
			delete(vars, e.obj)
			delete(safe, e.obj)
			delete(asyncAt, e.obj)
			switch e.kind {
			case evDefine:
				vars[e.obj] = &state{mode: e.mode, allocPos: shortPos(e.pos)}
			case evSafe:
				safe[e.obj] = ""
			}
		case evUse:
			use(e.obj, e.pos)
		case evKill:
			use(e.obj, e.pos)
			delete(vars, e.obj)
		case evSync:
			asyncAll = ""
			clear(asyncAt)
		case evCall:
			at := shortPos(e.pos)
			if !e.async {
				// A synchronous Call ends in Sync: it completes every
				// earlier async launch too.
				asyncAll = ""
				clear(asyncAt)
			} else if len(e.writes) == 0 {
				asyncAll = at
			}
			for _, w := range e.writes {
				if st := vars[w]; st != nil {
					if st.mode == "ReadOnly" {
						pass.Reportf(e.pos,
							"kernel declares Writes(%s), but %s is allocated gmac.ReadOnly at %s; ReadOnly objects are sealed after their first release (ErrModeViolation at run time)",
							w.Name(), w.Name(), st.allocPos)
					}
					st.wrote = true
				}
				if e.async {
					asyncAt[w] = at
				}
			}
			for obj, staled := range safe {
				if staled == "" {
					safe[obj] = at
				}
			}
		case evAccess:
			chain := callgraph.ChainStrings(e.chain, e.what+" "+e.name, e.accessPos)
			via := callgraph.ViaSuffix(e.chain)
			st := vars[e.obj]
			if e.write {
				if st != nil {
					if st.mode == "ReadOnly" {
						pass.ReportChainf(e.pos, chain,
							"%s writes %s, which is allocated gmac.ReadOnly at %s; writes to ReadOnly objects fail with ErrModeViolation%s",
							e.what, e.name, st.allocPos, via)
					}
					st.wrote = true
				}
				break
			}
			if st != nil && st.mode == "WriteOnly" && !st.wrote {
				pass.ReportChainf(e.pos, chain,
					"%s reads %s, which is allocated gmac.WriteOnly at %s and not yet written; reads of WriteOnly objects fail with ErrModeViolation%s",
					e.what, e.name, st.allocPos, via)
			}
			at := asyncAll
			if at == "" {
				at = asyncAt[e.obj]
			}
			if at != "" {
				pass.ReportChainf(e.pos, chain,
					"%s reads %s while the async kernel launched at %s may still be writing it; Sync first%s",
					e.what, e.name, at, via)
			}
		}
	}
}
