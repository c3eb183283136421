// Package fsatomic is the crash-safe file-replacement primitive shared by
// the snapshot writer and the checkpoint store: write to a temporary file in
// the destination directory, fsync it, rename it over the destination, and
// fsync the directory entry. A crash at any point leaves either the old
// complete file or the new complete file — never a half-written one that
// could later masquerade as valid state.
package fsatomic

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes produced by write. The
// temporary file is created next to path (same filesystem, so the rename is
// atomic) with a name containing ".tmp-", which the durability layer's
// startup sweep recognises as abandoned debris.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-renamed entry survives power loss.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
