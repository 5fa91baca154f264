package gmac

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportHasARow requires each exported identifier of package gmac
// to have a row in the "Every export" table of docs/api.md, whose second
// column names the paper section or the non-test caller that keeps it. A
// row must name an export and give its reason. Keys are Name for a
// package-level identifier and Type.Method for a method; an interface
// method counts as a method of its interface, and the methods of the
// unexported sessionCore, which Context and MultiContext embed, count as
// Session methods. Struct fields are not keyed.
func TestEveryExportHasARow(t *testing.T) {
	exports := gmacExports(t)
	rows := exportRows(t, filepath.Join("..", "docs", "api.md"))
	for _, k := range sortedKeys(exports) {
		if _, ok := rows[k]; !ok {
			t.Errorf("%s is exported but has no row in docs/api.md's \"Every export\" table", k)
		}
	}
	for _, k := range sortedKeys(rows) {
		switch {
		case !exports[k]:
			t.Errorf("docs/api.md's \"Every export\" row %s names no export of gmac", k)
		case rows[k] == "":
			t.Errorf("docs/api.md's \"Every export\" row %s gives no paper section or caller", k)
		}
	}
}

// gmacExports is the set of keys of gmac's exported identifiers, read from
// the package's non-test source.
func gmacExports(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	add := func(key string, id *ast.Ident) {
		if id.IsExported() {
			out[key] = true
		}
	}
	for _, f := range pkgs["gmac"].Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(decl.Name.Name, decl.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				typ := recv.(*ast.Ident).Name
				if typ == "sessionCore" {
					typ = "Session"
				}
				add(typ+"."+decl.Name.Name, decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec.Name)
						if it, ok := spec.Type.(*ast.InterfaceType); ok && spec.Name.IsExported() {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									add(spec.Name.Name+"."+id.Name, id)
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id.Name, id)
						}
					}
				}
			}
		}
	}
	return out
}

// exportRows reads the "Every export" table of the markdown file at path:
// the backquoted key of each row's first column, mapped to its second
// column.
func exportRows(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			in = line == "## Every export"
			continue
		case !in || !strings.HasPrefix(line, "|"):
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		key := strings.TrimSpace(cells[0])
		if len(cells) != 2 || !strings.HasPrefix(key, "`") || !strings.HasSuffix(key, "`") {
			continue // the header, its separator, or a malformed row
		}
		key = strings.Trim(key, "`")
		if _, dup := rows[key]; dup {
			t.Errorf("docs/api.md's \"Every export\" table has two rows for %s", key)
		}
		rows[key] = strings.TrimSpace(cells[1])
	}
	if len(rows) == 0 {
		t.Fatalf("%s has no \"Every export\" table", path)
	}
	return rows
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
