// adsmvet is the ADSM static-analysis multichecker: the analyzer suite
// that mechanically enforces the repository's lock-order, hot-path and
// protocol-state conventions (see docs/static-analysis.md),
// interprocedurally via the callgraph summary engine.
//
// It runs two ways:
//
//	adsmvet ./...                     # standalone, via go list
//	go vet -vettool=$(pwd)/bin/adsmvet ./...   # as a go vet backend
//
// The second form speaks cmd/go's unitchecker protocol: respond to
// -V=full with a version line, to -flags with a JSON flag inventory, and
// otherwise accept a *.cfg file describing one already-built package unit
// (sources plus export data for every dependency). The vetx "facts" files
// the protocol threads from dependency to dependent carry the callgraph
// engine's per-package function summaries (see internal/analysis/callgraph),
// so interprocedural findings cross package boundaries even though each
// package is checked in isolation.
//
// Exit codes, in both modes: 0 means every analyzed package is clean;
// 1 means diagnostics were reported (or a package failed to parse or
// typecheck); 2 means the tool itself was misused or failed internally.
// -json changes only the output encoding — a run that prints a non-empty
// diagnostics array still exits 1, so CI can both archive the JSON
// artifact and fail the step with no extra plumbing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzers"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/load"
)

// version is the build identifier reported to cmd/go. It must not look
// like a devel version or the go command refuses to cache vet results.
// cmd/go keys cached results on it, so bump it whenever what an analyzer
// reports changes.
const version = "v1.6.0"

func main() {
	if err := analyzers.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "adsmvet:", err)
		os.Exit(2)
	}
	args := os.Args[1:]

	// cmd/go handshake 1: tool identity for the build cache. The toolchain
	// version is folded into the identity token so upgrading Go invalidates
	// cached vet results along with the rebuilt vettool.
	if len(args) == 1 && args[0] == "-V=full" {
		fmt.Printf("adsmvet version %s+%s\n", version, runtime.Version())
		return
	}

	fs := flag.NewFlagSet("adsmvet", flag.ExitOnError)
	fs.Usage = usage(fs)
	selected := map[string]*bool{}
	for _, a := range analyzers.All() {
		selected[a.Name] = fs.Bool(a.Name, false, "run only analyzers enabled by flags (default: all)\n"+a.Doc)
	}
	printFlags := fs.Bool("flags", false, "print the flag inventory as JSON (cmd/go handshake)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	// cmd/go handshake 2: advertise supported flags.
	if *printFlags {
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		for _, a := range analyzers.All() {
			out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
		}
		data, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adsmvet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(data)
		return
	}

	suite := enabled(selected)
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		os.Exit(unitchecker(rest[0], suite, *jsonOut))
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	os.Exit(standalone(rest, suite, *jsonOut))
}

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintln(os.Stderr, "usage: adsmvet [-<analyzer>...] [package pattern...]")
		fmt.Fprintln(os.Stderr, "       go vet -vettool=/path/to/adsmvet ./...")
		fmt.Fprintln(os.Stderr, "\nanalyzers:")
		for _, a := range analyzers.All() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
}

// enabled applies go vet's flag semantics: with no analyzer flags set,
// every analyzer runs; otherwise only the named ones do.
func enabled(selected map[string]*bool) []*analysis.Analyzer {
	any := false
	for _, v := range selected {
		any = any || *v
	}
	var suite []*analysis.Analyzer
	for _, a := range analyzers.All() {
		if !any || *selected[a.Name] {
			suite = append(suite, a)
		}
	}
	return suite
}

// standalone loads packages through the go command and analyzes them.
func standalone(patterns []string, suite []*analysis.Analyzer, jsonOut bool) int {
	units, err := load.Units(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adsmvet:", err)
		return 2
	}
	var all []analysis.Diagnostic
	for _, unit := range units {
		diags, err := analysis.Run(unit, suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adsmvet:", err)
			return 2
		}
		all = append(all, diags...)
	}
	report(os.Stdout, all, jsonOut)
	if len(all) > 0 {
		return 1
	}
	return 0
}

// vetConfig mirrors the JSON cmd/go writes for each vet unit (the subset
// adsmvet consumes).
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	PackageVetx map[string]string

	SucceedOnTypecheckFailure bool
	VetxOnly                  bool
	VetxOutput                string
}

// unitchecker analyzes one pre-built package unit described by a cmd/go
// vet.cfg file. The unit is typechecked even when cmd/go asks only for
// facts (VetxOnly): the vetx output is the package's callgraph summary
// blob, which dependents need for interprocedural analysis. Standard
// library units skip summarization — the engine's built-in table covers
// the std functions hot paths may use — and get an empty blob.
// Diagnostics go to stderr; the exit code tells cmd/go whether the
// package passed.
func unitchecker(cfgPath string, suite []*analysis.Analyzer, jsonOut bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adsmvet:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "adsmvet: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	writeVetx := func(blob []byte) bool {
		if cfg.VetxOutput == "" {
			return true
		}
		if err := os.WriteFile(cfg.VetxOutput, blob, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "adsmvet:", err)
			return false
		}
		return true
	}
	emptyBlob, _ := (&callgraph.PkgSummary{Version: callgraph.SummaryVersion}).Encode()
	if cfg.VetxOnly && !moduleLocal(cfg.ImportPath) {
		if !writeVetx(emptyBlob) {
			return 2
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx(emptyBlob)
				return 0
			}
			fmt.Fprintln(os.Stderr, "adsmvet:", err)
			return 1
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	pkgPath := cfg.ImportPath
	if i := strings.IndexByte(pkgPath, ' '); i >= 0 {
		pkgPath = pkgPath[:i] // test variant spelling "pkg [pkg.test]"
	}
	pkg, info, err := load.Check(fset, pkgPath, files, importer.ForCompiler(fset, cfg.Compiler, lookup))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx(emptyBlob)
			return 0
		}
		fmt.Fprintf(os.Stderr, "adsmvet: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	unit := &analysis.Unit{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	unit.DepBlob = func(path string) []byte {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageVetx[path]
		if !ok {
			return nil
		}
		blob, err := os.ReadFile(file)
		if err != nil {
			return nil
		}
		return blob
	}

	cg, err := callgraph.Summarize(unit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adsmvet:", err)
		return 2
	}
	blob, err := cg.Export().Encode()
	if err != nil {
		blob = emptyBlob
	}
	if !writeVetx(blob) {
		return 2
	}
	if cfg.VetxOnly {
		return 0
	}

	diags, err := analysis.Run(unit, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adsmvet:", err)
		return 2
	}
	report(os.Stderr, diags, jsonOut)
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// moduleLocal distinguishes this module's packages (whose summaries carry
// interprocedural facts) from the standard library (covered by the
// engine's built-in table). The repository is a single self-contained
// module with no external dependencies, so a path prefix is exact.
func moduleLocal(importPath string) bool {
	return importPath == "repro" || strings.HasPrefix(importPath, "repro/") ||
		strings.HasPrefix(importPath, "command-line-arguments")
}

func report(w io.Writer, diags []analysis.Diagnostic, jsonOut bool) {
	if jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Chain:    d.Chain,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		enc.Encode(out)
		return
	}
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
	}
}

// jsonDiagnostic is the stable machine-readable diagnostic shape emitted
// by -json (documented in docs/static-analysis.md): one object per
// finding, with the interprocedural call chain rendered outermost-first.
type jsonDiagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Column   int      `json:"column"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}
