// Package statestore holds the one write primitive that the resume
// paths trust after a crash: WriteFileAtomic, used for exploration
// checkpoints and durable job records.
package statestore

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path such that a crash at any point
// leaves either the old content or the new content, never a torn file:
// the bytes go to a temp file in the same directory, are fsynced, and
// the temp file is renamed over the destination. This is the write
// primitive for checkpoints and durable job records — everything the
// resume paths trust after a SIGKILL.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	return nil
}
