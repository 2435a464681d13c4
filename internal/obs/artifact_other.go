//go:build !unix

package obs

import (
	"errors"
	"io"
	"os"
)

// artifactFile is one open artifact through os.File, on systems without
// the unix descriptor calls (syscall.Stat_t does not exist on Windows).
// Its methods have the contract of the unix version's.
type artifactFile struct {
	f *os.File
}

// openArtifact opens the NUL-terminated name under d read-write, creating
// it with perm.
func openArtifact(d *ArtifactDir, name []byte, perm os.FileMode) (artifactFile, error) {
	f, err := os.OpenFile(d.join(name), os.O_RDWR|os.O_CREATE, perm)
	return artifactFile{f}, err
}

// writeOnly swaps f's file for a write-only one on the same path, opened
// before the old one closes (see the unix version).
func (f *artifactFile) writeOnly() error {
	w, err := os.OpenFile(f.f.Name(), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	// The old file was only used for Stat; its close cannot lose a write.
	_ = f.f.Close()
	f.f = w
	return nil
}

func (f artifactFile) pathError(op string, err error) error {
	return &os.PathError{Op: op, Path: f.f.Name(), Err: err}
}

// stat returns the file's size and whether it is a regular file.
func (f artifactFile) stat() (int64, bool, error) {
	fi, err := f.f.Stat()
	if err != nil {
		return 0, false, err
	}
	return fi.Size(), fi.Mode().IsRegular(), nil
}

// readAt reads into p from offset off; n is 0 only at end of file.
func (f artifactFile) readAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}

// write writes p at the file's offset, which is 0 until the first write
// (readAt does not move it).
func (f artifactFile) write(p []byte) (int, error) {
	return f.f.Write(p)
}

func (f artifactFile) truncate(size int64) error {
	return f.f.Truncate(size)
}

func (f artifactFile) close() error {
	return f.f.Close()
}
