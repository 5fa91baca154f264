package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/analyzers"
)

// TestSuiteWellFormed checks that the analyzer suite loads with unique,
// documented names that do not collide with the framework flags.
func TestSuiteWellFormed(t *testing.T) {
	if err := analyzers.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("adsmvet", flag.ContinueOnError)
	for _, a := range analyzers.All() {
		switch a.Name {
		case "flags", "json", "V":
			t.Errorf("analyzer name %q collides with a framework flag", a.Name)
			continue
		}
		fs.Bool(a.Name, false, a.Doc) // panics on a duplicate registration
	}
	fs.Bool("flags", false, "")
	fs.Bool("json", false, "")
}

// TestEnabledSemantics checks go vet's flag convention: no analyzer flags
// set runs everything, any set runs only those.
func TestEnabledSemantics(t *testing.T) {
	selected := map[string]*bool{}
	for _, a := range analyzers.All() {
		v := false
		selected[a.Name] = &v
	}
	if got, want := len(enabled(selected)), len(analyzers.All()); got != want {
		t.Errorf("no flags set: %d analyzers enabled, want all %d", got, want)
	}
	*selected["noalloc"] = true
	suite := enabled(selected)
	if len(suite) != 1 || suite[0].Name != "noalloc" {
		t.Errorf("-noalloc: %d analyzers enabled, want just noalloc", len(suite))
	}
}

// TestVettoolProtocol builds the tool and exercises the cmd/go handshake
// plus a real `go vet -vettool` run over a clean package.
func TestVettoolProtocol(t *testing.T) {
	bin := buildTool(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	version := strings.TrimSpace(string(out))
	if !strings.HasPrefix(version, "adsmvet version ") || strings.Contains(version, "devel") {
		t.Errorf("-V=full printed %q; cmd/go needs `adsmvet version <non-devel>` to cache results", version)
	}

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var inventory []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &inventory); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out)
	}
	if len(inventory) != len(analyzers.All()) {
		t.Errorf("-flags advertised %d analyzers, want %d", len(inventory), len(analyzers.All()))
	}
	for _, f := range inventory {
		if !f.Bool {
			t.Errorf("flag %s advertised as non-boolean", f.Name)
		}
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "repro/internal/sim")
	vet.Dir = filepath.Join("..", "..")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool over a clean package failed: %v\n%s", err, out)
	}
}

// buildTool compiles adsmvet once per test into a temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "adsmvet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building adsmvet: %v\n%s", err, out)
	}
	return bin
}

// writeModule materializes a throwaway single-package module for
// standalone runs.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	return dir
}

// exitCode runs the command and returns its exit code (failing the test
// on errors that never produced one).
func exitCode(t *testing.T, cmd *exec.Cmd) (int, []byte) {
	t.Helper()
	out, err := cmd.Output()
	if err == nil {
		return 0, out
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%v: %v", cmd.Args, err)
	}
	return ee.ExitCode(), out
}

// TestExitCodesAndJSON pins the documented exit-code semantics — 0 clean,
// 1 diagnostics, 2 misuse — and the -json diagnostic shape, including the
// interprocedural call chain.
func TestExitCodesAndJSON(t *testing.T) {
	bin := buildTool(t)

	t.Run("clean", func(t *testing.T) {
		dir := writeModule(t, "package p\n\nfunc fine(x int) int { return x + 1 }\n")
		cmd := exec.Command(bin, "-json", "./...")
		cmd.Dir = dir
		code, out := exitCode(t, cmd)
		if code != 0 {
			t.Errorf("clean package exited %d, want 0", code)
		}
		var diags []jsonDiagnostic
		if err := json.Unmarshal(out, &diags); err != nil {
			t.Fatalf("-json output is not a diagnostics array: %v\n%s", err, out)
		}
		if len(diags) != 0 {
			t.Errorf("clean package produced %d diagnostics", len(diags))
		}
	})

	t.Run("violations", func(t *testing.T) {
		dir := writeModule(t, `package p

//adsm:noalloc
func hot() []int {
	return mid()
}

func mid() []int {
	return leaf()
}

func leaf() []int {
	return make([]int, 8)
}
`)
		cmd := exec.Command(bin, "-json", "./...")
		cmd.Dir = dir
		code, out := exitCode(t, cmd)
		if code != 1 {
			t.Errorf("violating package exited %d, want 1 (-json must not mask failure)", code)
		}
		var diags []jsonDiagnostic
		if err := json.Unmarshal(out, &diags); err != nil {
			t.Fatalf("-json output is not a diagnostics array: %v\n%s", err, out)
		}
		if len(diags) != 1 {
			t.Fatalf("got %d diagnostics, want 1:\n%s", len(diags), out)
		}
		d := diags[0]
		if d.Analyzer != "noalloc" || d.File == "" || d.Line == 0 || d.Column == 0 {
			t.Errorf("diagnostic missing fields: %+v", d)
		}
		if !strings.Contains(d.Message, "call to p.mid allocates: make allocates") ||
			!strings.Contains(d.Message, "(via p.leaf at p.go:") {
			t.Errorf("message lost the call chain: %q", d.Message)
		}
		if len(d.Chain) != 3 {
			t.Errorf("chain = %q, want the two frames plus the construct", d.Chain)
		}
	})

	t.Run("plain-output-same-exit", func(t *testing.T) {
		dir := writeModule(t, "package p\n\n//adsm:noalloc\nfunc hot() []int { return make([]int, 8) }\n")
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		code, _ := exitCode(t, cmd)
		if code != 1 {
			t.Errorf("violating package exited %d, want 1", code)
		}
	})

	t.Run("misuse", func(t *testing.T) {
		cmd := exec.Command(bin, "-no-such-flag")
		code, _ := exitCode(t, cmd)
		if code != 2 {
			t.Errorf("flag misuse exited %d, want 2", code)
		}
	})
}
