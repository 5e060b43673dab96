package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteDurable replaces the file at path atomically: write streams the new
// contents into <path>.tmp beside it, which is fsynced and renamed over the
// target, and the directory is fsynced. A crash or a failed write at any
// point — the snapshot writers stream, so a failure leaves a prefix behind —
// leaves the old file or the new one at path, never a truncated one that
// would poison the next boot.
func WriteDurable(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	// Persist the rename itself; without this a power loss can forget the
	// directory entry even though both files were written.
	if err := dir.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}
