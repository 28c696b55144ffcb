package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic serializes s to path so a crash mid-write can never
// leave a half-written checkpoint under the final name: the bytes go to
// a temp file in the same directory, are fsynced, and only then renamed
// into place (rename within a directory is atomic on POSIX). The
// directory is fsynced afterwards so the rename itself survives a
// crash. Combined with the format's CRC trailer this gives every
// reader one invariant: any file that exists under its final name either
// reads back bit-exact or is detected as corrupt.
func WriteFileAtomic(path string, s *State) error {
	return writeAtomic(path, func(f *os.File) error { return Write(f, s) })
}

// WriteBytesAtomic writes raw bytes with the same temp + fsync + rename
// discipline — for non-checkpoint artifacts (flight-recorder trace
// dumps) that must never appear half-written under their final name.
func WriteBytesAtomic(path string, data []byte) error {
	return writeAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// writeAtomic runs write against a temp file in path's directory, then
// fsyncs and renames it into place and fsyncs the directory.
func writeAtomic(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory (best effort on platforms where
// directories cannot be opened for sync).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// ReadFile loads one checkpoint file, verifying the FGCK envelope and
// CRC — the counterpart of WriteFileAtomic, used by the job service to
// restore a drained job from its spool file.
func ReadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return s, nil
}
