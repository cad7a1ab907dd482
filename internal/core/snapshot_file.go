package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"probgraph/internal/snapbin"
)

// SnapshotFormat selects the on-disk snapshot encoding.
type SnapshotFormat string

const (
	// SnapshotText is the line-oriented pgsnap v5 format: the snapshot's
	// token stream one typed token per line, for reading and diffing.
	// Loading it parses the whole file.
	SnapshotText SnapshotFormat = "text"
	// SnapshotBinary is the pgsnap v4 binary format: mmap-able, so
	// OpenSnapshot starts in O(1) and shares pages across processes.
	SnapshotBinary SnapshotFormat = "binary"
)

// ParseSnapshotFormat parses a -format flag value, "text" or "binary".
func ParseSnapshotFormat(s string) (SnapshotFormat, error) {
	switch SnapshotFormat(s) {
	case SnapshotText, SnapshotBinary:
		return SnapshotFormat(s), nil
	}
	return "", fmt.Errorf("core: unknown snapshot format %q (want %q or %q)", s, SnapshotText, SnapshotBinary)
}

// SaveFile atomically writes the view to path in the given format: the
// snapshot is written to a temporary file in the same directory, synced,
// and renamed over path — a crash mid-save can truncate only the
// temporary file, never an existing snapshot at path.
func (v *View) SaveFile(path string, format SnapshotFormat) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		return v.SaveAs(w, format)
	})
}

// SaveFile atomically writes the current view to path; see View.SaveFile.
func (db *Database) SaveFile(path string, format SnapshotFormat) error {
	return db.View().SaveFile(path, format)
}

// OpenSnapshot loads a snapshot from a file, format-sniffed. A binary
// (pgsnap v4) snapshot is mmap'd: the load touches only the section table
// plus the graph records, the big slabs stay on disk until queries fault
// them in, and every process opening the same file shares the page cache.
// The mapping lives for the process lifetime — a served database aliases
// it. Text snapshots are streamed through LoadDatabase.
func OpenSnapshot(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [len(snapbin.Magic)]byte
	if _, err := io.ReadFull(f, magic[:]); err == nil && snapbin.IsBinary(magic[:]) {
		data, err := mapFile(f)
		if err != nil {
			return nil, fmt.Errorf("core: mapping %s: %w", path, err)
		}
		return loadBinarySnapshot(data)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return LoadDatabase(f)
}

// writeFileAtomic writes via a same-directory temp file + fsync + rename,
// so path either keeps its old content or holds the complete new content.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	defer func() {
		if tmp != nil {
			tmp.Close()
		}
		if err != nil {
			os.Remove(name)
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		tmp = nil
		return err
	}
	tmp = nil
	return os.Rename(name, path)
}
