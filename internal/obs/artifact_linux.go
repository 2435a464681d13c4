package obs

import (
	"bytes"
	"errors"
	"os"
	"syscall"
)

// ArtifactDir is a directory that artifact files are written under (see
// ArtifactWriter.WriteIn): on Linux an open descriptor of the directory,
// which the names under it are opened relative to. Only OpenDir makes one;
// its zero value holds nothing, and closing it is a no-op.
type ArtifactDir struct {
	fd   int
	path string
}

// workDir is the working directory: a name under it is a path. AT_FDCWD
// is -100 on every Linux architecture; package syscall does not export it.
var workDir = ArtifactDir{fd: -100}

// OpenDir opens the directory at path, first making it and any missing
// parents (mode 0755, as os.MkdirAll) if it does not exist. The opened
// directory stays the same one if its path is later renamed or replaced.
func (a *ArtifactWriter) OpenDir(path string) (ArtifactDir, error) {
	open := func() (fd int, err error) {
		a.name = append(append(a.name[:0], path...), 0)
		err = ignoringEINTR(func() (err error) {
			fd, err = workDir.open(a.name, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
			return err
		})
		return fd, err
	}
	fd, err := open()
	if errors.Is(err, syscall.ENOENT) {
		if err := os.MkdirAll(path, 0o755); err != nil {
			return ArtifactDir{}, err
		}
		fd, err = open()
	}
	if err != nil {
		return ArtifactDir{}, &os.PathError{Op: "open", Path: path, Err: err}
	}
	return ArtifactDir{fd: fd, path: path}, nil
}

// setName puts name, NUL-terminated, in a.name and returns the directory
// it is relative to: d, whose descriptor the kernel resolves it from.
func (a *ArtifactWriter) setName(d *ArtifactDir, name []byte) *ArtifactDir {
	a.name = append(append(a.name[:0], name...), 0)
	return d
}

// Close releases the directory's descriptor; nothing is written through
// it, so its close loses nothing. d is then its zero value.
func (d *ArtifactDir) Close() error {
	if d.path == "" {
		return nil
	}
	err := syscall.Close(d.fd)
	if err != nil {
		err = &os.PathError{Op: "close", Path: d.path, Err: err}
	}
	*d = ArtifactDir{}
	return err
}

// open opens the NUL-terminated name relative to d.
func (d *ArtifactDir) open(name []byte, flags int, perm uint32) (int, error) {
	if holdsNUL(name) {
		return -1, syscall.EINVAL
	}
	return openat(d.fd, name, flags, perm)
}

// mkdir makes the NUL-terminated name relative to d.
func (d *ArtifactDir) mkdir(name []byte, perm os.FileMode) error {
	if holdsNUL(name) {
		return syscall.EINVAL
	}
	return ignoringEINTR(func() error { return mkdirat(d.fd, name, uint32(perm.Perm())) })
}

// holdsNUL reports a NUL before name's terminator, which the kernel would
// take for the end of the name; syscall.Open refuses such a path with
// EINVAL, and so do open and mkdir.
func holdsNUL(name []byte) bool {
	return bytes.IndexByte(name[:len(name)-1], 0) >= 0
}
