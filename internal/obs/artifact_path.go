//go:build !linux

package obs

import (
	"os"
	"syscall"
)

// ArtifactDir is a directory that artifact files are written under (see
// ArtifactWriter.WriteIn). Off Linux it is the directory's path, and a
// name under it is opened by the two joined (setName). Only OpenDir makes
// one.
type ArtifactDir struct {
	path string
}

// workDir is the working directory: a name under it is a path.
var workDir ArtifactDir

// OpenDir makes the directory at path and any missing parents (mode 0755,
// as os.MkdirAll) if it does not exist.
func (a *ArtifactWriter) OpenDir(path string) (ArtifactDir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return ArtifactDir{}, err
	}
	return ArtifactDir{path: path}, nil
}

// setName puts d's path joined to name, NUL-terminated, in a.name and
// returns the directory that path is relative to: the working directory.
// The two are joined by one separator but not cleaned: the path is
// OpenDir's, and the name one the caller built.
func (a *ArtifactWriter) setName(d *ArtifactDir, name []byte) *ArtifactDir {
	a.name = append(a.name[:0], d.path...)
	if n := len(a.name); n > 0 && !os.IsPathSeparator(a.name[n-1]) {
		a.name = append(a.name, os.PathSeparator)
	}
	a.name = append(append(a.name, name...), 0)
	return &workDir
}

// Close releases d; off Linux it holds nothing to release.
func (d *ArtifactDir) Close() error {
	*d = ArtifactDir{}
	return nil
}

// mkdir makes the NUL-terminated name under d.
func (d *ArtifactDir) mkdir(name []byte, perm os.FileMode) error {
	return syscall.Mkdir(d.join(name), uint32(perm.Perm()))
}
