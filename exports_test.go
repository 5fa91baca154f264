package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow lists the exports of gmac, machine and internal/... that
// no non-test code names but that stay, each with its reason. A key is
// "dir.Name" or "dir.Type.Method", dir being the package directory. The
// reasons are: the paper names it; it implements an interface; it is a
// reserved stream constant; it is a test instrument, named with the tests
// that use it. An entry must give its reason and name an export the scan
// finds unreferenced. Everything in internal/testutil is exempt as a whole.
var deadExportAllow = map[string]string{
	// The paper names it.
	"gmac.Session.MemcpyToShared":       "paper §4.4: the interposed memcpy into shared memory",
	"gmac.Session.MemcpyFromShared":     "paper §4.4: the interposed memcpy out of shared memory",
	"gmac.sessionCore.MemcpyToShared":   "paper §4.4: Session.MemcpyToShared on Context and MultiContext",
	"gmac.sessionCore.MemcpyFromShared": "paper §4.4: Session.MemcpyFromShared on Context and MultiContext",
	"gmac.Session.MemcpyShared":         "paper §4.4: the interposed memcpy between two shared objects",
	"gmac.sessionCore.MemcpyShared":     "paper §4.4: Session.MemcpyShared on Context and MultiContext",
	"gmac.ReadOnlyHint": "paper §4.3 per-call declaration; the racecheck fixtures concurrent-reads-no-race and " +
		"host-write-during-kernel-read carry its FlagHintRead (TestFixturesReplayStrictly)",
	"gmac.ReadWrite": "paper §4.3: the zero AccessMode, full coherence, the paper's only behaviour (docs/access-modes.md)",

	// It implements an interface.
	"internal/analysis/load.dirImporter.Import": "go/types.Importer",
	"internal/sim.Category.MarshalText":         "encoding.TextMarshaler: the JSON map keys of a breakdown",
	"internal/osabs.File.Seek":                  "io.Seeker, beside Read and Write",

	// It is a reserved stream constant.
	"internal/oplog.HdrNoCoalesce": "reserved header flag: recorded streams keep its bit",
	"internal/oplog.HdrRaceDetect": "reserved header flag: recorded streams keep its bit",

	// It is a test instrument.
	"internal/accel.Device.Memory":     "raw device memory: TestClose and the kernel-output checks of internal/core and gmac",
	"internal/accel.Device.VAMappings": "leak check: TestDeviceVirtualMemory, TestVirtualMemoryAllocMapVAFailureReleases",
	"internal/mem.VASpace.Mappings":    "leak check: TestVASpaceMapFixed, TestVirtualMemoryAllocNeverConflicts",
	"internal/accel.Device.Lost":       "loss check: TestClose, TestFaultInjectorArmsOnlyItsDevice, TestUseAfterClose",
	"internal/osabs.FS.Contents":       "file check: TestWriteFileFetchesFromDevice, TestWriteFileUnderInjectedIOErrors",
	"internal/workloads.AllSmall":      "every workload at test scale: TestBatchingConformanceAllWorkloads, TestWorkloadsRaceFree",
	"machine.SmallTestbed":             "the fast test machine of the gmac, racecheck and introspect tests",
}

// TestNoDeadExports fails on an exported identifier of gmac, machine or a
// package under internal/ that nothing references outside its own
// declaration, counting every non-test .go file of the repository (bench/,
// cmd/ and examples/ included; testdata/ excluded, as the go tool does).
// An export with only test callers is dead API: delete it with its tests,
// or give it an entry in deadExportAllow with the reason it stays.
//
// The scan is syntactic. An identifier counts as a reference to every
// export of that name, whatever package or type declares it, so it errs
// toward "used": it misses a dead Close beside a live one, but it never
// flags a live export. Declarations of a name (a method, an interface
// method, a struct field) do not count as references. Struct fields are
// not scanned: encoding/json and fmt read them by reflection.
func TestNoDeadExports(t *testing.T) {
	type export struct {
		key      string
		name     string
		pos, end token.Pos
	}
	fset := token.NewFileSet()
	var exports []export
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir != "gmac" && dir != "machine" && !strings.HasPrefix(dir, "internal/") || dir == "internal/testutil" {
			return nil
		}
		add := func(key string, id *ast.Ident, span ast.Node) {
			if id.IsExported() {
				exports = append(exports, export{dir + "." + key, id.Name, span.Pos(), span.End()})
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key := decl.Name.Name
				if decl.Recv != nil {
					key = recvName(decl.Recv.List[0].Type) + "." + key
				}
				add(key, decl.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec.Name, spec)
						if it, ok := spec.Type.(*ast.InterfaceType); ok && spec.Name.IsExported() {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(spec.Name.Name+"."+id.Name, id, m)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name, id, id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every identifier that names something rather than declaring it,
	// by name.
	uses := make(map[string][]token.Pos)
	for _, f := range files {
		decls := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decls[n.Name] = true
			case *ast.TypeSpec:
				decls[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					decls[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					decls[id] = true
				}
			case *ast.Ident:
				if !decls[n] && n.IsExported() {
					uses[n.Name] = append(uses[n.Name], n.Pos())
				}
			}
			return true
		})
	}

	var dead []string
	allowed := make(map[string]bool)
	for _, e := range exports {
		used := false
		for _, p := range uses[e.name] {
			if p < e.pos || p >= e.end {
				used = true
				break
			}
		}
		switch {
		case used:
		case deadExportAllow[e.key] != "":
			allowed[e.key] = true
		default:
			dead = append(dead, e.key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s: exported, but no non-test code references it", k)
	}
	for k := range deadExportAllow {
		if !allowed[k] {
			t.Errorf("deadExportAllow[%q]: no such unreferenced export; drop the entry", k)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
