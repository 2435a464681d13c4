//go:build unix && !linux

package obs

import "syscall"

// open opens the NUL-terminated name under d by its joined path.
func (d *ArtifactDir) open(name []byte, flags int, perm uint32) (int, error) {
	return syscall.Open(d.join(name), flags, perm)
}
