//go:build unix

package obs

import (
	"os"
	"syscall"
)

// artifactFile is one open artifact as a raw descriptor. Going around
// os.File saves what a Write that finds the bytes in place would otherwise
// spend on the file's poller registration, its finalizer and the FileInfo
// that Stat allocates. Errors come back as *os.PathError.
type artifactFile struct {
	fd   int
	dir  *ArtifactDir
	name []byte // relative to dir, NUL-terminated
}

// ignoringEINTR calls fn until it returns anything but EINTR, as package
// os does around the same calls.
func ignoringEINTR(fn func() error) error {
	for {
		if err := fn(); err != syscall.EINTR {
			return err
		}
	}
}

// openArtifact opens the NUL-terminated name under d read-write, creating
// it with perm.
func openArtifact(d *ArtifactDir, name []byte, perm os.FileMode) (artifactFile, error) {
	f := artifactFile{dir: d, name: name}
	err := ignoringEINTR(func() (err error) {
		f.fd, err = d.open(name, syscall.O_RDWR|syscall.O_CREAT|syscall.O_CLOEXEC, uint32(perm.Perm()))
		return err
	})
	if err != nil {
		return artifactFile{}, f.pathError("open", err)
	}
	return f, nil
}

// writeOnly swaps f's descriptor for a write-only one on the same name.
// The new one is open before the old one closes, so a FIFO never loses
// its last writer in between: a reader that the first open woke does not
// see end of file before the bytes.
func (f *artifactFile) writeOnly() error {
	var fd int
	err := ignoringEINTR(func() (err error) {
		fd, err = f.dir.open(f.name, syscall.O_WRONLY|syscall.O_CLOEXEC, 0)
		return err
	})
	if err != nil {
		return f.pathError("open", err)
	}
	// The old descriptor was only used for fstat; its close cannot lose a
	// write.
	_ = syscall.Close(f.fd)
	f.fd = fd
	return nil
}

func (f artifactFile) pathError(op string, err error) error {
	return &os.PathError{Op: op, Path: f.dir.join(f.name), Err: err}
}

// stat returns the file's size and whether it is a regular file.
func (f artifactFile) stat() (int64, bool, error) {
	var st syscall.Stat_t
	if err := ignoringEINTR(func() error { return syscall.Fstat(f.fd, &st) }); err != nil {
		return 0, false, f.pathError("stat", err)
	}
	return st.Size, uint32(st.Mode)&syscall.S_IFMT == syscall.S_IFREG, nil
}

// readAt reads into p from offset off; n is 0 only at end of file.
func (f artifactFile) readAt(p []byte, off int64) (n int, err error) {
	if err = ignoringEINTR(func() error { n, err = syscall.Pread(f.fd, p, off); return err }); err != nil {
		return 0, f.pathError("read", err)
	}
	return n, nil
}

// write writes p at the file's offset, which is 0 until the first write
// (readAt does not move it).
func (f artifactFile) write(p []byte) (n int, err error) {
	if err = ignoringEINTR(func() error { n, err = syscall.Write(f.fd, p); return err }); err != nil {
		return 0, f.pathError("write", err)
	}
	return n, nil
}

func (f artifactFile) truncate(size int64) error {
	if err := ignoringEINTR(func() error { return syscall.Ftruncate(f.fd, size) }); err != nil {
		return f.pathError("truncate", err)
	}
	return nil
}

// close closes the descriptor. Like package os it does not retry EINTR:
// the descriptor is released either way.
func (f artifactFile) close() error {
	if err := syscall.Close(f.fd); err != nil {
		return f.pathError("close", err)
	}
	return nil
}
