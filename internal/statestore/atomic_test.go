package statestore

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("content = %q, want v1", got)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v2" {
		t.Fatalf("content = %q, want v2", got)
	}
	// No temp debris left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want 1: %v", len(ents), ents)
	}
	// Missing parent directory errors instead of panicking.
	if err := WriteFileAtomic(filepath.Join(dir, "no-such", "f"), nil, 0o644); err == nil {
		t.Fatal("write into missing directory: want error")
	}
}
