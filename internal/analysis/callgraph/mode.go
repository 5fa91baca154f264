package callgraph

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// ptrAccess is one host access a gmac session method performs.
type ptrAccess struct {
	arg   int  // index of the gmac.Ptr argument touched
	write bool // host write (else host read)
}

// hostAccess is the one table of the gmac host contract: each session
// method that touches shared memory, with the gmac.Ptr arguments it reads
// and writes. The summary engine and the modecheck analyzer both read it,
// so "what counts as a host write" has one definition; mode_test.go fails
// when a gmac.Context method with a Ptr parameter is missing from it.
var hostAccess = map[string][]ptrAccess{
	"HostRead":         {{arg: 0}},                        // HostRead(p Ptr, dst []byte)
	"HostWrite":        {{arg: 0, write: true}},           // HostWrite(p Ptr, src []byte)
	"Memset":           {{arg: 0, write: true}},           // Memset(p Ptr, b byte, n int64)
	"MemcpyToShared":   {{arg: 0, write: true}},           // MemcpyToShared(dst Ptr, src []byte)
	"MemcpyFromShared": {{arg: 1}},                        // MemcpyFromShared(dst []byte, src Ptr)
	"MemcpyShared":     {{arg: 0, write: true}, {arg: 1}}, // MemcpyShared(dst, src Ptr, n int64)
	"ReadFile":         {{arg: 1, write: true}},           // ReadFile(f, p Ptr, n): read(2) into shared memory
	"WriteFile":        {{arg: 1}},                        // WriteFile(f, p Ptr, n): write(2) from shared memory
}

// GmacMethod returns the name of the method a call invokes when that
// method is declared in a package named gmac — the real one or the
// golden-test stub — and "" otherwise.
func GmacMethod(info *types.Info, call *ast.CallExpr) string {
	if fn := gmacCallee(info, call); fn != nil && fn.Type().(*types.Signature).Recv() != nil {
		return fn.Name()
	}
	return ""
}

// GmacFunc is GmacMethod for package-level gmac functions (the Alloc and
// Call options: Mode, Writes, Async, ...).
func GmacFunc(info *types.Info, call *ast.CallExpr) string {
	if fn := gmacCallee(info, call); fn != nil && fn.Type().(*types.Signature).Recv() == nil {
		return fn.Name()
	}
	return ""
}

func gmacCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "gmac" {
		return nil
	}
	return fn
}

// gmacPtrType returns the type gmac.Ptr denotes, aliases resolved, when pkg
// is the gmac package or imports it (directly or, where the importer
// recorded them, transitively); nil otherwise. The real gmac.Ptr is an
// alias of mem.Addr, so the answer is the aliased type, not a type named
// Ptr.
func gmacPtrType(pkg *types.Package) types.Type {
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) types.Type
	find = func(p *types.Package) types.Type {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if p.Name() == "gmac" {
			if tn, ok := p.Scope().Lookup("Ptr").(*types.TypeName); ok {
				return types.Unalias(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			if t := find(imp); t != nil {
				return t
			}
		}
		return nil
	}
	return find(pkg)
}

// IsGmacPtr reports whether t is the shared-pointer type gmac.Ptr, spelled
// either way: as gmac.Ptr or as the type it aliases.
func (in *Info) IsGmacPtr(t types.Type) bool {
	return in.gmacPtr != nil && t != nil && types.Identical(types.Unalias(t), in.gmacPtr)
}

// PtrEffect is one host access a call performs on a gmac.Ptr argument.
type PtrEffect struct {
	Arg   ast.Expr       // the Ptr-typed argument expression
	Write bool           // host write vs host read
	What  string         // method name, e.g. "HostWrite"
	Chain []SummaryFrame // empty for direct session methods
	Pos   string         // where the underlying access sits
}

// PtrEffects classifies one call's host accesses to gmac.Ptr arguments:
// direct gmac session methods through the hostAccess table, and calls to
// helpers whose summaries declare PtrWrites/PtrReads on a parameter.
func (in *Info) PtrEffects(call *ast.CallExpr) []PtrEffect {
	var out []PtrEffect
	info := in.Unit.TypesInfo
	if name := GmacMethod(info, call); name != "" {
		for _, a := range hostAccess[name] {
			if arg := in.ptrArgAt(call, a.arg); arg != nil {
				out = append(out, PtrEffect{Arg: arg, Write: a.write, What: name, Pos: short(in.Unit.Fset, call.Pos())})
			}
		}
		return out
	}
	for _, e := range in.resolve(call) {
		s := in.Summary(e.Callee)
		if s == nil {
			continue
		}
		frame := in.Frame(e.Callee, call.Pos())
		for _, pe := range s.PtrWrites {
			if arg := in.ptrArgAt(call, pe.Index); arg != nil {
				out = append(out, PtrEffect{Arg: arg, Write: true, What: pe.What,
					Chain: PrependFrame(frame, pe.Chain), Pos: pe.Pos})
			}
		}
		for _, pe := range s.PtrReads {
			if arg := in.ptrArgAt(call, pe.Index); arg != nil {
				out = append(out, PtrEffect{Arg: arg, Write: false, What: pe.What,
					Chain: PrependFrame(frame, pe.Chain), Pos: pe.Pos})
			}
		}
		if len(out) > 0 {
			break // one resolved callee's effects suffice
		}
	}
	return out
}

// ptrArgAt returns call.Args[i] when it exists and is gmac.Ptr-typed.
func (in *Info) ptrArgAt(call *ast.CallExpr, i int) ast.Expr {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	arg := call.Args[i]
	if in.IsGmacPtr(in.Unit.TypesInfo.TypeOf(arg)) {
		return arg
	}
	return nil
}

// ptrParams maps a function's gmac.Ptr-typed parameter objects to their
// signature indices (methods count parameters only, not the receiver).
func (in *Info) ptrParams(fn *types.Func) map[types.Object]int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := map[types.Object]int{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if in.IsGmacPtr(p.Type()) {
			out[p] = i
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
