package callgraph

import (
	"encoding/json"
	"fmt"
	"go/types"
	"strings"
)

// SummaryVersion is bumped whenever the FuncSummary wire shape changes, so
// stale vetx blobs from an older adsmvet are discarded instead of
// misdecoded.
const SummaryVersion = 2

// SummaryFrame is one call-chain step: a callee and the file:line of the
// call site (base name only, stable across checkouts).
type SummaryFrame struct {
	Name string `json:"n"`
	Pos  string `json:"p"`
}

// LockUse is one annotated lock a function may acquire, directly or
// transitively.
type LockUse struct {
	Name   string         `json:"name"`
	Level  int            `json:"level"`
	Nowait bool           `json:"nowait,omitempty"`
	Pos    string         `json:"pos"`             // acquisition site
	Chain  []SummaryFrame `json:"chain,omitempty"` // call path to it
}

// FuncSummary is the bottom-up dataflow fact set for one function: what
// calling it may do, independent of call context. Chains hold the call
// path from the summarized function to the offending construct (first
// frame = its direct callee); an empty chain means the construct is in
// the function's own body.
type FuncSummary struct {
	// Annotations on the declaration.
	NoAlloc bool `json:"noalloc,omitempty"` // //adsm:noalloc: trusted alloc-free
	Cold    bool `json:"cold,omitempty"`    // //adsm:cold: allocating by design

	// Allocation behavior. NoAlloc functions summarize as non-allocating
	// (their own bodies are checked at their definition); Cold functions
	// summarize as allocating.
	Allocates  bool           `json:"allocates,omitempty"`
	AllocWhat  string         `json:"allocWhat,omitempty"`
	AllocPos   string         `json:"allocPos,omitempty"`
	AllocChain []SummaryFrame `json:"allocChain,omitempty"`

	// Blocking behavior (channel operations, sync waits, //adsm:blocking).
	Blocks     bool           `json:"blocks,omitempty"`
	BlockWhat  string         `json:"blockWhat,omitempty"`
	BlockPos   string         `json:"blockPos,omitempty"`
	BlockChain []SummaryFrame `json:"blockChain,omitempty"`

	// Annotated locks this function may acquire (even if it also releases
	// them: the acquisition itself must respect the hierarchy).
	Acquires []LockUse `json:"acquires,omitempty"`
}

// PkgSummary is the serialized per-package summary set carried across
// package boundaries (the vetx facts payload in unitchecker mode), keyed
// by types.Func.FullName.
type PkgSummary struct {
	Version int                     `json:"version"`
	Funcs   map[string]*FuncSummary `json:"funcs"`
}

// Export snapshots this package's local summaries for serialization.
func (in *Info) Export() *PkgSummary {
	ps := &PkgSummary{Version: SummaryVersion, Funcs: map[string]*FuncSummary{}}
	for name, s := range in.local {
		ps.Funcs[name] = s
	}
	return ps
}

// Encode serializes the package summary (the vetx facts payload).
func (ps *PkgSummary) Encode() ([]byte, error) {
	return json.Marshal(ps)
}

// DecodeSummary parses a serialized package summary, rejecting blobs from
// other summary versions (nil, nil: treat the dependency as unknown).
func DecodeSummary(blob []byte) (*PkgSummary, error) {
	ps := new(PkgSummary)
	if err := json.Unmarshal(blob, ps); err != nil {
		return nil, err
	}
	if ps.Version != SummaryVersion {
		return nil, nil
	}
	return ps, nil
}

// Summary returns the dataflow summary of fn as seen from this package:
// package-local functions resolve to the fixpoint result, module-local
// dependencies to their source- or vetx-derived summaries, and a short
// built-in table covers the standard-library functions the hot paths are
// allowed to use. nil means the function is unknown (callers must be
// conservative where it matters).
func (in *Info) Summary(fn *types.Func) *FuncSummary {
	fn = origin(fn)
	if fn.Pkg() == nil {
		return nil // universe scope (error.Error)
	}
	if fn.Pkg().Path() == in.Unit.Pkg.Path() {
		return in.local[fn.FullName()]
	}
	if s := knownSummary(fn); s != nil {
		return s
	}
	ps := in.pkgSummary(fn.Pkg().Path())
	if ps == nil {
		return nil
	}
	return ps.Funcs[fn.FullName()]
}

// pkgSummary resolves a dependency package's summary set: from its loaded
// source unit when available (standalone / analysistest loads), else from
// the vetx blob cmd/go carried over (unitchecker mode).
func (in *Info) pkgSummary(path string) *PkgSummary {
	if ps, ok := in.depMemo[path]; ok {
		return ps
	}
	// Mark in-progress before recursing so an unexpected import cycle
	// degrades to "unknown package" instead of deadlocking on unit caches.
	in.depMemo[path] = nil
	var ps *PkgSummary
	if du := in.Unit.DepUnits[path]; du != nil && du != in.Unit {
		if di, err := Summarize(du); err == nil {
			ps = di.Export()
		}
	}
	if ps == nil && in.Unit.DepBlob != nil {
		if blob := in.Unit.DepBlob(path); blob != nil {
			ps, _ = DecodeSummary(blob)
		}
	}
	in.depMemo[path] = ps
	return ps
}

var cleanSummary = &FuncSummary{}

// knownSummary is the built-in allowlist for standard-library functions:
// the packages the hot paths legitimately use are alloc-free and
// non-blocking, sync wait primitives block, and everything else is
// unknown (nil).
func knownSummary(fn *types.Func) *FuncSummary {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil
	}
	switch pkg.Path() {
	case "sync/atomic", "math", "math/bits", "unsafe":
		return cleanSummary
	case "errors":
		switch fn.Name() {
		case "Is", "As", "Unwrap":
			return cleanSummary
		}
	case "sync":
		recv := recvTypeName(fn)
		switch fn.Name() {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock", "RLocker":
			return cleanSummary
		case "Load", "Delete":
			if recv == "Map" { // lookups don't allocate; Store and friends do
				return cleanSummary
			}
		case "Add", "Done":
			if recv == "WaitGroup" {
				return cleanSummary
			}
		case "Signal", "Broadcast":
			if recv == "Cond" {
				return cleanSummary
			}
		case "Wait":
			return &FuncSummary{
				Blocks:    true,
				BlockWhat: "sync." + recv + ".Wait",
				BlockPos:  "sync",
			}
		}
	}
	return nil
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// ChainStrings renders summary frames plus the terminal construct into
// Diagnostic.Chain entries ("core.helper at manager.go:120", outermost
// call first, offending construct last).
func ChainStrings(frames []SummaryFrame, what, pos string) []string {
	out := make([]string, 0, len(frames)+1)
	for _, f := range frames {
		out = append(out, f.Name+" at "+f.Pos)
	}
	if what != "" {
		out = append(out, what+" at "+pos)
	}
	return out
}

// ViaSuffix renders a call chain into a message suffix so golden `// want`
// patterns (and humans reading one-line output) see the full path:
// " (via core.mid at a.go:5 -> core.leaf at b.go:7)".
func ViaSuffix(frames []SummaryFrame) string {
	if len(frames) == 0 {
		return ""
	}
	parts := make([]string, len(frames))
	for i, f := range frames {
		parts[i] = f.Name + " at " + f.Pos
	}
	return " (via " + strings.Join(parts, " -> ") + ")"
}

// PrependFrame extends a callee chain with the call-site frame, copying so
// summaries never alias each other's chains.
func PrependFrame(f SummaryFrame, chain []SummaryFrame) []SummaryFrame {
	out := make([]SummaryFrame, 0, len(chain)+1)
	out = append(out, f)
	return append(out, chain...)
}

// unknownCallWhat is the conservative description of a call whose summary
// is unavailable.
func unknownCallWhat(fn *types.Func) string {
	if fn.Pkg() == nil {
		// Universe-scope methods (error.Error, and little else) have no
		// package; they are dynamic calls with unknowable behavior.
		return fmt.Sprintf("dynamic call to %s (unknown allocation behavior)", fn.Name())
	}
	return fmt.Sprintf("call into %s (unknown allocation behavior)", fn.Pkg().Path())
}
