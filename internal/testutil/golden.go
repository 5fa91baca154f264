package testutil

import (
	"os"
	"path/filepath"
	"testing"
)

// CheckGolden compares got with the file at path, or with update set
// rewrites the file (creating its directory) to hold got.
func CheckGolden(t *testing.T, update bool, path, got string) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs (rerun with -update if the change is intentional):\n--- golden\n%s--- current\n%s",
			path, want, got)
	}
}
