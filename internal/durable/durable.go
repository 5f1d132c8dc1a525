// Package durable owns how this repository makes bytes durable: whole
// files replaced atomically (WriteFile) and append-only segment logs
// (Log, Scan). Durable means fsync'd: once a write is acknowledged, its
// bytes and the directory entry naming them survive power loss, not
// just a process kill. Everything that must survive a crash — model
// artifacts, training checkpoints, arena files, table-matching job
// state and output, the feedback journal and the audit log — is written
// here, so there is one crash model to reason about and to test.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
)

// WriteFile writes path through write so that a crash at any point
// leaves the old file or the whole new one, never a torn mix: write fills
// a temp file in the same directory, which is fsync'd and renamed over
// path, and then the directory is fsync'd so the rename survives power
// loss. An existing file keeps its permissions; a new one gets perm less
// the umask, as os.OpenFile gives it. On error the temp file is removed
// and path is untouched.
func WriteFile(path string, perm os.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := createTemp(dir, filepath.Base(path), perm)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if st, err := os.Stat(path); err == nil {
		if err := tmp.Chmod(st.Mode().Perm()); err != nil {
			return fail(fmt.Errorf("durable: %w", err))
		}
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("durable: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("durable: %w", err))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// createTemp creates a new hidden file in dir named after base, with
// perm less the umask; os.CreateTemp would always make it 0600.
func createTemp(dir, base string, perm os.FileMode) (*os.File, error) {
	for try := 0; ; try++ {
		name := filepath.Join(dir, fmt.Sprintf(".%s.tmp%d", base, rand.Uint32()))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, perm)
		if errors.Is(err, fs.ErrExist) && try < 100 {
			continue
		}
		return f, err
	}
}

// SyncDir fsyncs a directory, making the entries created or renamed in it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
