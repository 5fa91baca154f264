// Package analysis is a dependency-free re-creation of the core of
// golang.org/x/tools/go/analysis, sized for this repository's needs.
//
// The ADSM runtime's correctness rests on conventions the Go compiler
// cannot check: coherence actions only at call/return boundaries (Gelado
// et al., ASPLOS 2010, §3), a strict lock order in internal/core, and an
// allocation-free fault hot path. The
// analyzers under internal/analysis/... turn those conventions into
// mechanical checks, in the spirit of Shasta's compiler-inserted access
// checks: tooling, not discipline.
//
// The x/tools analysis framework is the natural substrate, but this module
// is intentionally dependency-free (and is built in offline environments),
// so this package defines the same minimal vocabulary — Analyzer, Pass,
// Diagnostic — on top of go/ast and go/types alone. cmd/adsmvet drives the
// analyzers either standalone or as a `go vet -vettool` backend.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //adsm:allow
	// suppressions. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph description printed by `adsmvet -help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Unit is the loaded package under analysis; interprocedural analyzers
	// reach the callgraph summary engine through it (callgraph.Of caches
	// the per-package graph and summaries here so the three consumers share
	// one computation).
	Unit *Unit

	diags *[]Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Chain is the interprocedural call chain leading to the violation,
	// outermost call first, rendered one frame per entry ("core.helper at
	// manager.go:120"). Empty for intra-procedural findings.
	Chain []string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportChainf records a diagnostic at pos carrying an interprocedural
// call chain (outermost frame first).
func (p *Pass) ReportChainf(pos token.Pos, chain []string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Unit is one loaded, type-checked package ready for analysis.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// DepUnits maps import paths of module-local (or testdata-sibling)
	// dependencies to their loaded units, so the summary engine can
	// compute dependency summaries from source. The map is shared between
	// all units of one load and may include this unit itself.
	DepUnits map[string]*Unit

	// DepBlob returns the serialized callgraph summary blob for a
	// dependency package (nil when unknown). Set in unitchecker mode,
	// where dependency summaries arrive as vetx facts files instead of
	// loaded source.
	DepBlob func(pkgPath string) []byte

	cacheMu sync.Mutex
	cache   map[string]any
}

// Cache memoizes a per-unit computation under key, so independent
// analyzers share one callgraph/summary build per package.
func (u *Unit) Cache(key string, build func() (any, error)) (any, error) {
	u.cacheMu.Lock()
	defer u.cacheMu.Unlock()
	if v, ok := u.cache[key]; ok {
		if err, isErr := v.(error); isErr {
			return nil, err
		}
		return v, nil
	}
	v, err := build()
	if u.cache == nil {
		u.cache = map[string]any{}
	}
	if err != nil {
		u.cache[key] = err
		return nil, err
	}
	u.cache[key] = v
	return v, nil
}

// AllowCheck is the suppression auditor: it validates //adsm:allow
// directives rather than source code. Each directive must carry a reason
// (`//adsm:allow noalloc: cold error path`), and a directive that no
// longer suppresses any diagnostic of the analyzers that ran is reported
// as stale. It is meaningful when run alongside the full suite (the
// default); a directive naming an analyzer that did not run is never
// reported stale.
var AllowCheck = &Analyzer{
	Name: "allowcheck",
	Doc:  "require a reason on every //adsm:allow suppression and flag stale suppressions",
	Run:  func(*Pass) error { return nil }, // handled by the framework after filtering
}

// Run applies every analyzer to the unit and returns the surviving
// diagnostics: findings on lines carrying an //adsm:allow suppression are
// dropped, and the rest are sorted by position. When the suite includes
// AllowCheck, the suppression directives themselves are audited after
// filtering.
func Run(unit *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	auditAllows := false
	ran := map[string]bool{}
	for _, a := range analyzers {
		if a == AllowCheck || a.Name == AllowCheck.Name {
			auditAllows = true
			continue
		}
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      unit.Fset,
			Files:     unit.Files,
			Pkg:       unit.Pkg,
			TypesInfo: unit.TypesInfo,
			Unit:      unit,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	directives := allowDirectives(unit)
	diags = filterAllowed(directives, diags)
	if auditAllows {
		diags = append(diags, auditDirectives(directives, ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// allowDirective is one parsed //adsm:allow comment. The canonical shape
// is `//adsm:allow <analyzer...>: <reason>`; no analyzer names means every
// analyzer is suppressed on that line.
type allowDirective struct {
	pos       token.Position
	names     []string // empty = all analyzers
	hasReason bool
	used      int // diagnostics this directive suppressed in this run
}

// allowDirectives parses every //adsm:allow comment in the unit.
func allowDirectives(unit *Unit) []*allowDirective {
	var dirs []*allowDirective
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := directive(c.Text, "allow")
				if !ok {
					continue
				}
				d := &allowDirective{pos: unit.Fset.Position(c.Pos())}
				names := rest
				if i := strings.IndexByte(rest, ':'); i >= 0 {
					names = rest[:i]
					d.hasReason = strings.TrimSpace(rest[i+1:]) != ""
				}
				d.names = strings.Fields(names)
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// filterAllowed drops diagnostics suppressed by an //adsm:allow directive
// on the same line or the line immediately above, crediting the directive
// that granted each suppression.
func filterAllowed(dirs []*allowDirective, diags []Diagnostic) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if !allowed(dirs, d) {
			kept = append(kept, d)
		}
	}
	return kept
}

func allowed(dirs []*allowDirective, d Diagnostic) bool {
	for _, dir := range dirs {
		if dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if dir.pos.Line != d.Pos.Line && dir.pos.Line != d.Pos.Line-1 {
			continue
		}
		if dir.matches(d.Analyzer) {
			dir.used++
			return true
		}
	}
	return false
}

func (dir *allowDirective) matches(analyzer string) bool {
	if len(dir.names) == 0 {
		return true
	}
	for _, n := range dir.names {
		if n == analyzer {
			return true
		}
	}
	return false
}

// auditDirectives produces the AllowCheck diagnostics: directives missing
// a reason, and directives that suppressed nothing even though every
// analyzer they name ran (stale suppressions left behind after the code
// they excused was fixed or deleted).
func auditDirectives(dirs []*allowDirective, ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range dirs {
		if !dir.hasReason {
			out = append(out, Diagnostic{
				Analyzer: AllowCheck.Name,
				Pos:      dir.pos,
				Message:  "//adsm:allow needs a reason: write `//adsm:allow <analyzer...>: <why this is safe>`",
			})
			continue
		}
		if dir.used > 0 {
			continue
		}
		stale := true
		for _, n := range dir.names {
			if !ran[n] {
				stale = false // that analyzer did not run; cannot judge
				break
			}
		}
		if stale {
			out = append(out, Diagnostic{
				Analyzer: AllowCheck.Name,
				Pos:      dir.pos,
				Message:  fmt.Sprintf("stale //adsm:allow: it suppresses no %s diagnostic any more; delete it", strings.Join(orAll(dir.names), "/")),
			})
		}
	}
	return out
}

func orAll(names []string) []string {
	if len(names) == 0 {
		return []string{"analyzer"}
	}
	return names
}

// directive reports whether the comment text is the //adsm:<name> directive
// (optionally followed by arguments), returning the argument remainder.
// Directives use the standard Go tool-directive shape: no space after //.
func directive(text, name string) (rest string, ok bool) {
	prefix := "//adsm:" + name
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest = text[len(prefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //adsm:noallocator
	}
	return strings.TrimSpace(rest), true
}

// Directive scans a comment group for the //adsm:<name> directive.
func Directive(cg *ast.CommentGroup, name string) (rest string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if rest, ok := directive(c.Text, name); ok {
			return rest, ok
		}
	}
	return "", false
}

// FuncDirective reports whether fn carries the //adsm:<name> directive,
// either in its doc comment or in a free-standing comment group that ends
// on the line immediately above the declaration.
func FuncDirective(fset *token.FileSet, file *ast.File, fn *ast.FuncDecl, name string) (string, bool) {
	if rest, ok := Directive(fn.Doc, name); ok {
		return rest, ok
	}
	funcLine := fset.Position(fn.Pos()).Line
	for _, cg := range file.Comments {
		if fset.Position(cg.End()).Line == funcLine-1 {
			if rest, ok := Directive(cg, name); ok {
				return rest, ok
			}
		}
	}
	return "", false
}

// ReceiverTypeName returns the name of fn's receiver base type ("" for
// plain functions), ignoring any pointer indirection.
func ReceiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// FuncKey renders a FuncDecl as "Name" or "(*Recv).Name", the notation used
// by the noalloc required-annotation table.
func FuncKey(fn *ast.FuncDecl) string {
	if recv := ReceiverTypeName(fn); recv != "" {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return fn.Name.Name
}

// CalleeFunc resolves the called function or method of a call expression,
// or nil (builtins, function-typed variables, type conversions).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// CalleePkgName returns the package name declaring the called function
// ("" when unresolved or a builtin).
func CalleePkgName(info *types.Info, call *ast.CallExpr) string {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Name()
}

// IsBuiltinCall reports whether the call invokes the named builtin.
func IsBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
