package callgraph

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/testutil"
)

// stubs stand in for the two packages a generated graph imports: sync, whose
// mutex methods the engine knows by package path, and ext, whose function
// has no summary anywhere (an unknown call).
var stubs = map[string]string{
	"sync": "package sync\n\ntype Mutex struct{ state int }\n\nfunc (m *Mutex) Lock()   {}\nfunc (m *Mutex) Unlock() {}\n",
	"ext":  "package ext\n\nfunc Unknown() {}\n",
}

// stubImporter type-checks the stubs once per fileset.
type stubImporter map[string]*types.Package

func newStubImporter(t *testing.T, fset *token.FileSet) stubImporter {
	imp := stubImporter{}
	for path, src := range stubs {
		f, err := parser.ParseFile(fset, path+".go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg, _, err := load.Check(fset, path, []*ast.File{f}, imp)
		if err != nil {
			t.Fatal(err)
		}
		imp[path] = pkg
	}
	return imp
}

func (imp stubImporter) Import(path string) (*types.Package, error) {
	if pkg := imp[path]; pkg != nil {
		return pkg, nil
	}
	return nil, fmt.Errorf("no stub for %q", path)
}

// genGraph writes a random package of n functions f0..f<n-1>. Each body is a
// few statements drawn from calls to any function (itself included, so
// self-recursion and multi-function SCCs both occur), an annotated lock's
// acquisition, an allocation, a channel receive and an unknown call; some
// declarations carry //adsm:noalloc, //adsm:cold or //adsm:blocking.
func genGraph(r *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("package gen\n\nimport (\n\t\"ext\"\n\t\"sync\"\n)\n\ntype locks struct {\n")
	nlocks := 1 + r.Intn(3)
	for k := 0; k < nlocks; k++ {
		nowait := ""
		if r.Intn(3) == 0 {
			nowait = " nowait"
		}
		fmt.Fprintf(&b, "\t//adsm:lock l%d %d%s\n\tl%d sync.Mutex\n", k, 10*(1+r.Intn(5)), nowait, k)
	}
	b.WriteString("}\n\nvar (\n\ts    locks\n\tsink []int\n\tch   chan int\n\t_    = ext.Unknown\n)\n")
	for i := 0; i < n; i++ {
		b.WriteString("\n")
		switch r.Intn(20) {
		case 0, 1, 2:
			b.WriteString("//adsm:noalloc\n")
		case 3:
			b.WriteString("//adsm:cold\n")
		case 4:
			b.WriteString("//adsm:blocking\n")
		}
		fmt.Fprintf(&b, "func f%d() {\n", i)
		for j, stmts := 0, r.Intn(6); j < stmts; j++ {
			switch k := r.Intn(10); {
			case k < 5:
				fmt.Fprintf(&b, "\tf%d()\n", r.Intn(n))
			case k < 7:
				l := r.Intn(nlocks)
				fmt.Fprintf(&b, "\ts.l%d.Lock()\n\ts.l%d.Unlock()\n", l, l)
			case k == 7:
				b.WriteString("\tsink = make([]int, 1)\n")
			case k == 8:
				b.WriteString("\t<-ch\n")
			default:
				b.WriteString("\text.Unknown()\n")
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// summarizeSource builds the engine's Info for one generated package.
func summarizeSource(t *testing.T, fset *token.FileSet, imp stubImporter, src string) *Info {
	t.Helper()
	f, err := parser.ParseFile(fset, "gen.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	pkg, info, err := load.Check(fset, "gen", []*ast.File{f}, imp)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	in, err := build(&analysis.Unit{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// naiveSummaries iterates every node's transfer function over the whole
// package, in declaration order and with no SCC condensation, until a full
// round changes nothing. It fails the test if that takes more rounds than a
// shortest-path relaxation can need.
func naiveSummaries(t *testing.T, seed int64, in *Info) map[string]*FuncSummary {
	t.Helper()
	nv := *in
	nv.local = map[string]*FuncSummary{}
	for _, n := range nv.Nodes {
		nv.local[n.Fn.FullName()] = nv.baseSummary(n)
	}
	for round := 0; ; round++ {
		if round > len(nv.Nodes)+1 {
			t.Fatalf("seed %d: naive iteration still changing after %d rounds", seed, round)
		}
		changed := false
		for _, n := range nv.Nodes {
			key := n.Fn.FullName()
			if next := nv.summarizeNode(n); !reflect.DeepEqual(next, nv.local[key]) {
				nv.local[key] = next
				changed = true
			}
		}
		if !changed {
			return nv.local
		}
	}
}

// TestFixpointMatchesNaiveIteration is the property test of the summary
// engine: on random call graphs with SCCs, self-recursion, annotated lock
// acquisitions and allocating calls, the SCC-ordered fixpoint must agree,
// summary for summary, with a naive whole-package iteration that converged.
// Agreeing with it means the fixpoint stopped at a true fixpoint (one more
// transfer of any node changes nothing), not at its pass cap.
func TestFixpointMatchesNaiveIteration(t *testing.T) {
	fset := token.NewFileSet()
	imp := newStubImporter(t, fset)
	seeds := testutil.Seeds(t, 1, 400)
	cyclic := 0 // graphs with an SCC of two or more functions
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		src := genGraph(r, 2+r.Intn(11))
		in := summarizeSource(t, fset, imp, src)
		for _, scc := range in.sccs() {
			if len(scc) > 1 {
				cyclic++
				break
			}
		}
		for key, s := range naiveSummaries(t, seed, in) {
			if !reflect.DeepEqual(in.local[key], s) {
				t.Fatalf("seed %d: %s:\nfixpoint %+v\nnaive    %+v\n%s", seed, key, *in.local[key], *s, src)
			}
		}
	}
	if len(seeds) > 1 && cyclic < len(seeds)/4 {
		t.Errorf("only %d of %d graphs have a multi-function SCC; the generator no longer tests the fixpoint", cyclic, len(seeds))
	}
}
