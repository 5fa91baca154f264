package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayerMap checks the layer table, layers.txt, against the package:
// every non-test Go file of internal/core has exactly one row, and every
// row names a file or package directory that exists. scripts/layers.sh
// (make layers) reads the same table to charge profile samples to layers.
func TestLayerMap(t *testing.T) {
	data, err := os.ReadFile("layers.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			t.Errorf("layers.txt:%d: want a path and a layer, got %q", i+1, line)
			continue
		}
		if _, dup := rows[f[0]]; dup {
			t.Errorf("layers.txt:%d: %s has a second row", i+1, f[0])
		}
		rows[f[0]] = strings.Join(f[1:], " ")
		if _, err := os.Stat(filepath.Join("..", "..", f[0])); err != nil || strings.HasSuffix(f[0], "_test.go") {
			t.Errorf("layers.txt:%d: %s is not a non-test file or package of the repository", i+1, f[0])
		}
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") && rows["internal/core/"+f] == "" {
			t.Errorf("%s has no row in layers.txt", f)
		}
	}
}
