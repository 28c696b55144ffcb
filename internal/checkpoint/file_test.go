package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readBack(t *testing.T, path string) *State {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.fgck")
	s := randState(200, 1)
	if err := WriteFileAtomic(path, s); err != nil {
		t.Fatal(err)
	}
	got := readBack(t, path)
	if got.Iter != s.Iter || got.Params[7] != s.Params[7] {
		t.Fatal("round trip mismatch")
	}
	// Overwriting an existing file goes through the same temp+rename.
	s2 := randState(200, 2)
	if err := WriteFileAtomic(path, s2); err != nil {
		t.Fatal(err)
	}
	if readBack(t, path).Params[7] != s2.Params[7] {
		t.Fatal("overwrite did not replace the contents")
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}
